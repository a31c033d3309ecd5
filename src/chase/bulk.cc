// The set-at-a-time chase core (ChaseCoreMode::kBulk): level-frontier
// sweeps over columnar segments. Produces a prefix bit-identical to the
// scalar core — same conjunct ids, facts, levels, arcs, step counts, NDV
// names, outcome — which the comments below argue invariant by invariant
// and tests/chase_core_parity_test.cc checks differentially.
#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "chase/bulk.h"
#include "chase/chase.h"

namespace cqchase {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

}  // namespace

void Chase::PrepareBulk() {
  const SteadyClock::time_point prepare_start = SteadyClock::now();
  bulk_ = std::make_unique<BulkState>();
  BulkState& b = *bulk_;
  const ChasePlan& plan = *plan_;
  const std::vector<InclusionDependency>& inds = deps_->inds();
  b.relation_slot.assign(catalog_->num_relations(), BulkState::kNone);
  b.group_of_ind.assign(inds.size(), BulkState::kNone);
  b.segment_of_ind.assign(inds.size(), BulkState::kNone);

  // Reliance pruning: an IND fires only on a fact of its lhs relation, and
  // relations gain facts only from the initial conjuncts or as some fired
  // IND's rhs (FD merges never introduce a relation). So the reliance
  // closure from the relations present now — PrepareBulk runs before the
  // first IND application, when only level-0 conjuncts exist — is exactly
  // the set of INDs that can ever fire, in either core (the fixpoint of
  // lhs-present => rhs-present, walked over the plan's relation -> INDs
  // index so it touches reachable INDs only). Pruned INDs get no mask bit
  // and no witness group: the scalar oracle never steps them either, so the
  // bit-identical parity contract is preserved (differential proof in
  // tests/chase_core_parity_test.cc and tests/reliance_test.cc).
  std::vector<RelationId> queue;
  auto touch = [&](RelationId relation) {
    if (b.relation_slot[relation] != BulkState::kNone) return;
    b.relation_slot[relation] = static_cast<uint32_t>(b.relations.size());
    b.relations.emplace_back();
    queue.push_back(relation);
  };
  for (const ChaseConjunct& c : conjuncts_) {
    if (c.alive) touch(c.fact.relation);
  }
  const size_t words = considered_.words_per_row();
  uint64_t reachable = 0;
  while (!queue.empty()) {
    const RelationId lhs = queue.back();
    queue.pop_back();
    for (const uint32_t k : plan.inds_from(lhs)) {
      ++reachable;
      const InclusionDependency& ind = inds[k];
      touch(ind.rhs_relation);
      // `touch` may have grown b.relations: index it only afterwards.
      std::vector<uint64_t>& mask =
          b.relations[b.relation_slot[lhs]].applicable;
      if (mask.empty()) mask.assign(words, 0);
      mask[k / 64] |= uint64_t{1} << (k % 64);
      // The rhs relation's groups are few; a linear scan finds the group of
      // the IND's projection (identified by the plan's columns object).
      const std::vector<uint32_t>* columns =
          &plan.projections()[plan.projection_of(k)].columns;
      std::vector<uint32_t>& rhs_groups =
          b.relations[b.relation_slot[ind.rhs_relation]].groups;
      uint32_t group = BulkState::kNone;
      for (const uint32_t g : rhs_groups) {
        if (b.groups[g].least.columns() == columns) group = g;
      }
      if (group == BulkState::kNone) {
        group = static_cast<uint32_t>(b.groups.size());
        b.groups.emplace_back().least.Reset(columns);
        rhs_groups.push_back(group);
      }
      b.group_of_ind[k] = group;
    }
  }
  stats_.inds_pruned += inds.size() - reachable;
  stats_.witness_groups_pruned = plan.projections().size() - b.groups.size();
  b.witness_dirty = true;
  stats_.prepare_ms += MsSince(prepare_start);
}

void Chase::AddToWitnessGroups(const ChaseConjunct& conjunct) {
  const BulkState::RelationState* state =
      bulk_->Relation(conjunct.fact.relation);
  if (state == nullptr) return;
  for (uint32_t g : state->groups) {
    const auto [least, inserted] =
        bulk_->groups[g].least.Emplace(conjunct.id, ConjunctFacts());
    if (inserted) continue;
    // Keep the least (fact, id): the paper's deterministic witness.
    const ChaseConjunct& held = conjuncts_[*least];
    if (conjunct.fact < held.fact ||
        (conjunct.fact == held.fact && conjunct.id < held.id)) {
      *least = conjunct.id;
    }
  }
}

void Chase::RebuildWitnessGroups() {
  ++stats_.index_rebuilds;
  for (BulkState::WitnessGroup& group : bulk_->groups) group.least.Clear();
  for (const ChaseConjunct& c : conjuncts_) {
    if (c.alive) AddToWitnessGroups(c);
  }
  bulk_->witness_dirty = false;
}

SegmentBuilder& Chase::SweepSegment(uint32_t ind, uint32_t level) {
  BulkState& b = *bulk_;
  uint32_t& slot = b.segment_of_ind[ind];
  if (slot == BulkState::kNone) {
    slot = static_cast<uint32_t>(b.open_segments++);
    if (slot == b.sweep_segments.size()) b.sweep_segments.emplace_back();
    const RelationId relation = deps_->inds()[ind].rhs_relation;
    b.sweep_segments[slot].Reset(level, ind, relation,
                                 static_cast<uint32_t>(
                                     catalog_->arity(relation)));
  }
  return b.sweep_segments[slot];
}

void Chase::FlushSweepSegments() {
  BulkState& b = *bulk_;
  const auto open = b.sweep_segments.begin() + b.open_segments;
  std::sort(b.sweep_segments.begin(), open,
            [](const SegmentBuilder& x, const SegmentBuilder& y) {
              return x.ind_index < y.ind_index;
            });
  for (auto it = b.sweep_segments.begin(); it != open; ++it) {
    b.segment_of_ind[it->ind_index] = BulkState::kNone;
    ++stats_.segments_built;
    segments_.Add(*it);
  }
  b.open_segments = 0;
}

bool Chase::HasPendingInds(const ChaseConjunct& conjunct) const {
  const std::vector<uint64_t>* mask = bulk_->Applicable(conjunct.fact.relation);
  if (mask == nullptr) return false;
  const uint64_t* row = considered_.Row(conjunct.id);
  for (size_t w = 0; w < mask->size(); ++w) {
    if (((*mask)[w] & ~(row != nullptr ? row[w] : 0)) != 0) return true;
  }
  return false;
}

bool Chase::BulkHasPendingWork() {
  uint64_t& watermark = bulk_->watermark;
  while (watermark < conjuncts_.size() &&
         (!conjuncts_[watermark].alive ||
          !HasPendingInds(conjuncts_[watermark]))) {
    ++watermark;
  }
  return watermark < conjuncts_.size();
}

Result<bool> Chase::RunLevelBatch(uint32_t effective) {
  BulkState& b = *bulk_;
  const std::vector<InclusionDependency>& inds = deps_->inds();
  if (inds.empty()) return false;
  const size_t words = considered_.words_per_row();

  // --- Retain phase: rebuild witnesses if stale, collect the frontier. ----
  const SteadyClock::time_point retain_start = SteadyClock::now();
  if (b.witness_dirty) RebuildWitnessGroups();

  // The frontier: alive conjuncts at the minimum level below `effective`
  // that still have unconsidered applicable INDs. Once this sweep starts,
  // the frontier is stable — every mint lands at frontier_level + 1, and an
  // FD merge aborts the sweep — so the scalar core's (level, fact, id, ind)
  // pending order linearizes to: frontier sorted by (fact, id), pending INDs
  // ascending within each conjunct. That is exactly the order below. No
  // conjunct below the watermark has pending work, so the scan starts there.
  uint32_t frontier_level = std::numeric_limits<uint32_t>::max();
  std::vector<uint64_t>& frontier = b.frontier;
  frontier.clear();
  if (BulkHasPendingWork()) {
    for (size_t i = b.watermark; i < conjuncts_.size(); ++i) {
      const ChaseConjunct& c = conjuncts_[i];
      if (!c.alive || c.level >= effective || c.level > frontier_level) {
        continue;
      }
      if (!HasPendingInds(c)) continue;
      if (c.level < frontier_level) {
        frontier_level = c.level;
        frontier.clear();
      }
      frontier.push_back(c.id);
    }
  }
  if (frontier.empty()) {
    stats_.retain_ms += MsSince(retain_start);
    return false;
  }
  std::sort(frontier.begin(), frontier.end(), [&](uint64_t x, uint64_t y) {
    const Fact& fx = conjuncts_[IndexOfId(x)].fact;
    const Fact& fy = conjuncts_[IndexOfId(y)].fact;
    if (fx != fy) return fx < fy;
    return x < y;
  });
  ++stats_.bulk_batches;
  stats_.max_batch_rows =
      std::max<uint64_t>(stats_.max_batch_rows, frontier.size());
  stats_.retain_ms += MsSince(retain_start);

  // --- Join phase: apply every pending IND across the frontier. -----------
  // Segment builders, one per IND that mints in this sweep; whatever
  // was minted is flushed into segments_ on every exit path (including
  // aborts — those mints happened).
  struct SweepGuard {
    Chase* chase;
    SteadyClock::time_point join_start = SteadyClock::now();
    ~SweepGuard() {
      chase->FlushSweepSegments();
      chase->stats_.join_ms += MsSince(join_start);
    }
  } sweep_guard{this};

  std::vector<uint32_t>& pending_inds = b.pending_inds;
  for (const uint64_t source_id : frontier) {
    // Snapshot this conjunct's pending INDs up front: Set() below mutates
    // the considered row while we iterate.
    const std::vector<uint64_t>& mask =
        *b.Applicable(conjuncts_[IndexOfId(source_id)].fact.relation);
    const uint64_t* row = considered_.Row(source_id);
    pending_inds.clear();
    for (size_t w = 0; w < words; ++w) {
      uint64_t bits = mask[w] & ~(row != nullptr ? row[w] : 0);
      while (bits != 0) {
        pending_inds.push_back(static_cast<uint32_t>(
            w * 64 + static_cast<size_t>(__builtin_ctzll(bits))));
        bits &= bits - 1;
      }
    }
    for (const uint32_t k : pending_inds) {
      // Same per-step sequence as the scalar OneIndStep: poll, count the
      // step, check max_steps, mark considered, probe, mint, check
      // max_conjuncts — divergence in any of these would break id parity.
      CQCHASE_RETURN_IF_ERROR(PollControl());
      ++stats_.steps;
      ++stats_.bulk_ind_applications;
      if (stats_.steps > limits_.max_steps) {
        return Status::ResourceExhausted(
            StrCat("chase exceeded max_steps=", limits_.max_steps));
      }
      considered_.Set(k, source_id);
      const InclusionDependency& ind = inds[k];
      // Read in place, and re-read per IND: a mint below may reallocate
      // conjuncts_. The value cannot change mid-sweep (a merge would have
      // aborted the sweep first).
      const Fact& source = conjuncts_[IndexOfId(source_id)].fact;

      // Witness probe against the shared (rhs_relation, rhs_columns) group:
      // the least (fact, id) witness the scalar per-IND witness_index_[k]
      // would return, kept current within the sweep by AddToWitnessGroups
      // at each mint (a later frontier row may be witnessed by an earlier
      // in-sweep mint).
      std::optional<uint64_t> witness;
      const uint64_t least =
          b.groups[b.group_of_ind[k]].least.Find(source, ind.lhs_columns,
                                                 ConjunctFacts());
      if (least != ProjectionIndex::kNone) witness = least;
      if (variant_ == ChaseVariant::kRequired ||
          (witness.has_value() && !plan_->has_fresh_columns(k))) {
        if (witness.has_value()) {
          MarkIndUsed(k);
          arcs_.push_back(ChaseArc{source_id, *witness, k, /*cross=*/true});
          continue;
        }
      }

      // IND CHASE RULE, same mint sequence (and thus NDV id sequence) as
      // the scalar core.
      const uint32_t new_level = frontier_level + 1;
      Fact created;
      created.relation = ind.rhs_relation;
      created.terms.resize(catalog_->arity(ind.rhs_relation));
      for (size_t i = 0; i < ind.rhs_columns.size(); ++i) {
        created.terms[ind.rhs_columns[i]] = source.terms[ind.lhs_columns[i]];
      }
      for (uint32_t col = 0; col < created.terms.size(); ++col) {
        if (!created.terms[col].is_valid()) {
          created.terms[col] = ndv_shard_.MakeChaseNdv(
              NdvProvenance{col, source_id, k, new_level});
        }
      }
      if (conjuncts_.size() >= limits_.max_conjuncts) {
        return Status::ResourceExhausted(
            StrCat("chase exceeded max_conjuncts=", limits_.max_conjuncts));
      }
      const uint64_t new_id = next_id_++;
      SweepSegment(k, new_level).AppendRow(created, new_id, source_id);
      conjuncts_.push_back(ChaseConjunct{new_id, std::move(created), new_level,
                                         /*alive=*/true, source_id, k});
      ++alive_count_;
      MarkIndUsed(k);
      arcs_.push_back(ChaseArc{source_id, new_id, k, /*cross=*/false});
      AddToWitnessGroups(conjuncts_.back());
      fd_queue_.push_back(new_id);

      // Incremental FD probe after each mint — the point in the scalar
      // interleaving where RunFdPhase sees this conjunct. A firing merge
      // mutates facts (witness_dirty) or empties the query; either way the
      // frontier is invalid: abort the sweep, the caller restarts it.
      if (!deps_->fds().empty()) {
        CQCHASE_RETURN_IF_ERROR(RunFdPhase());
        if (outcome_ == ChaseOutcome::kEmptyQuery || b.witness_dirty) {
          return true;
        }
      }
    }
  }
  return true;
}

Result<ChaseOutcome> Chase::BulkExpandToLevel(uint32_t effective) {
  if (bulk_ == nullptr) PrepareBulk();
  while (true) {
    CQCHASE_RETURN_IF_ERROR(PollControl());
    CQCHASE_RETURN_IF_ERROR(RunFdPhase());
    if (outcome_ == ChaseOutcome::kEmptyQuery) return outcome_;
    CQCHASE_ASSIGN_OR_RETURN(bool progressed, RunLevelBatch(effective));
    if (!progressed) break;
  }
  // No work below `effective`. Saturated iff nothing remains at any level —
  // same determination as the scalar core, via masks instead of pending_.
  outcome_ = BulkHasPendingWork() ? ChaseOutcome::kTruncated
                                  : ChaseOutcome::kSaturated;
  return outcome_;
}

}  // namespace cqchase
