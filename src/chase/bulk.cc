// The set-at-a-time chase core (ChaseCoreMode::kBulk): level-frontier
// sweeps over columnar segments. Produces a prefix bit-identical to the
// scalar core — same conjunct ids, facts, levels, arcs, step counts, NDV
// names, outcome — which the comments below argue invariant by invariant
// and tests/chase_core_parity_test.cc checks differentially.
#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <map>
#include <optional>
#include <set>
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
        if (b.groups[g].columns == columns) group = g;
      }
      if (group == BulkState::kNone) {
        group = static_cast<uint32_t>(b.groups.size());
        b.groups.push_back(BulkState::WitnessGroup{columns, {}});
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
    BulkState::WitnessGroup& group = bulk_->groups[g];
    std::vector<Term> projection;
    projection.reserve(group.columns->size());
    for (uint32_t col : *group.columns) {
      projection.push_back(conjunct.fact.terms[col]);
    }
    group.index[std::move(projection)].emplace(conjunct.fact, conjunct.id);
  }
}

void Chase::RebuildWitnessGroups() {
  ++stats_.index_rebuilds;
  for (BulkState::WitnessGroup& group : bulk_->groups) group.index.clear();
  for (const ChaseConjunct& c : conjuncts_) {
    if (c.alive) AddToWitnessGroups(c);
  }
  bulk_->witness_dirty = false;
}

ColumnSegment& Chase::SweepSegment(std::vector<ColumnSegment>* acc,
                                   uint32_t ind, uint32_t level) {
  uint32_t& slot = bulk_->segment_of_ind[ind];
  if (slot == BulkState::kNone) {
    slot = static_cast<uint32_t>(acc->size());
    ColumnSegment& seg = acc->emplace_back();
    seg.level = level;
    seg.ind_index = ind;
    seg.relation = deps_->inds()[ind].rhs_relation;
  }
  return (*acc)[slot];
}

void Chase::FlushSweepSegments(std::vector<ColumnSegment>* acc) {
  std::sort(acc->begin(), acc->end(),
            [](const ColumnSegment& x, const ColumnSegment& y) {
              return x.ind_index < y.ind_index;
            });
  for (ColumnSegment& seg : *acc) {
    bulk_->segment_of_ind[seg.ind_index] = BulkState::kNone;
    ++stats_.segments_built;
    segments_.Add(std::move(seg));
  }
  acc->clear();
}

bool Chase::BulkHasPendingWork(uint32_t level) const {
  const size_t words = considered_.words_per_row();
  for (const ChaseConjunct& c : conjuncts_) {
    if (!c.alive || c.level >= level) continue;
    const std::vector<uint64_t>* mask = bulk_->Applicable(c.fact.relation);
    if (mask == nullptr) continue;
    const uint64_t* row = considered_.Row(c.id);
    for (size_t w = 0; w < words; ++w) {
      if (((*mask)[w] & ~(row != nullptr ? row[w] : 0)) != 0) return true;
    }
  }
  return false;
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
  // ascending within each conjunct. That is exactly the order below.
  uint32_t frontier_level = std::numeric_limits<uint32_t>::max();
  std::vector<uint64_t> frontier;
  for (const ChaseConjunct& c : conjuncts_) {
    if (!c.alive || c.level >= effective || c.level > frontier_level) continue;
    const std::vector<uint64_t>* mask = b.Applicable(c.fact.relation);
    if (mask == nullptr) continue;
    const uint64_t* row = considered_.Row(c.id);
    bool pending = false;
    for (size_t w = 0; w < words && !pending; ++w) {
      pending = ((*mask)[w] & ~(row != nullptr ? row[w] : 0)) != 0;
    }
    if (!pending) continue;
    if (c.level < frontier_level) {
      frontier_level = c.level;
      frontier.clear();
    }
    frontier.push_back(c.id);
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
  // Columnar accumulators, one per IND that mints in this sweep; whatever
  // was minted is flushed into segments_ on every exit path (including
  // aborts — those mints happened).
  std::vector<ColumnSegment> acc;
  struct SweepGuard {
    Chase* chase;
    std::vector<ColumnSegment>* acc;
    SteadyClock::time_point join_start = SteadyClock::now();
    ~SweepGuard() {
      chase->FlushSweepSegments(acc);
      chase->stats_.join_ms += MsSince(join_start);
    }
  } sweep_guard{this, &acc};

  std::vector<uint32_t> pending_inds;
  std::vector<Term> x_values;
  for (const uint64_t source_id : frontier) {
    // Snapshot this conjunct's pending INDs up front: Set() below mutates
    // the considered row while we iterate. The fact is copied because
    // conjuncts_ may reallocate on push_back; it cannot change value
    // mid-sweep (a merge would have aborted the sweep first).
    const Fact source_fact = conjuncts_[IndexOfId(source_id)].fact;
    const std::vector<uint64_t>& mask = *b.Applicable(source_fact.relation);
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
      x_values.clear();
      for (uint32_t c : ind.lhs_columns) {
        x_values.push_back(source_fact.terms[c]);
      }

      // Witness probe against the shared (rhs_relation, rhs_columns) group:
      // identical contents to the scalar per-IND witness_index_[k], kept
      // current within the sweep by AddToWitnessGroups at each mint (a later
      // frontier row may be witnessed by an earlier in-sweep mint).
      BulkState::WitnessGroup& group = b.groups[b.group_of_ind[k]];
      std::optional<uint64_t> witness;
      auto it = group.index.find(x_values);
      if (it != group.index.end() && !it->second.empty()) {
        witness = it->second.begin()->second;  // min (fact, id)
      }
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
        created.terms[ind.rhs_columns[i]] = x_values[i];
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
      SweepSegment(&acc, k, new_level).AppendRow(created, new_id, source_id);
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
  outcome_ = BulkHasPendingWork(std::numeric_limits<uint32_t>::max())
                 ? ChaseOutcome::kTruncated
                 : ChaseOutcome::kSaturated;
  return outcome_;
}

}  // namespace cqchase
