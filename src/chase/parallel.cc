// The parallel chase core (ChaseCoreMode::kParallel): reliance-scheduled
// concurrent level sweeps that produce a prefix byte-identical to the
// scalar/bulk cores.
//
// Why this is possible at all: within one level sweep the frontier is frozen
// (every mint lands at frontier_level + 1, and an FD merge aborts the sweep),
// and the only shared structure the per-pair decision reads is the witness
// index of the IND's rhs relation. Group witness sets by that relation — the
// *witness class* — and classes become mutually independent: a class-C probe
// touches only relation-C groups, and every in-sweep mint that could witness
// a class-C pair is itself a class-C mint (a mint's relation IS its class).
// So witness decisions can be computed class-concurrently with zero shared
// writes, as long as each class sees its own earlier in-sweep mints — which
// a class-local overlay over the shared (read-only) group indexes provides.
//
// What cannot be computed concurrently is anything id-bearing: conjunct ids,
// NDV ids/names, arc order, and segment rows are an observable contract
// (certificates, resumability, ToString parity), and the scalar core
// interleaves them row-major across the frontier. Hence the four phases:
//
//   0. (seq)      collect + sort the frontier, snapshot every pending
//                 (conjunct, IND) pair in scalar order, partition by class;
//   1. (parallel) per class: decide mint-vs-cross for each pair and pick the
//                 deterministic witness, writing only into the pair itself.
//                 Classes launch depth-layer by depth-layer following
//                 SigmaGraph::frontiers() (ChasePlan::depth), barrier per
//                 layer — scheduling structure only, correctness needs just
//                 the class disjointness;
//   2a. (seq)     pure simulation: walk pairs in scalar order assigning the
//                 exact ids the scalar core would ("reservation before
//                 firing"), predicting resource-limit trips, and running a
//                 shadow FD check. ANY predicted FD merge discards the plan
//                 and serializes the level through RunLevelBatch (counted in
//                 parallel_serialized_levels) — nothing has been mutated yet;
//   2b. (seq)     commit: replay the per-pair scalar sequence (step counters,
//                 considered bits, NDV mints, conjunct/arc/segment appends,
//                 incremental FD bookkeeping) using the precomputed
//                 decisions. Sequential by design — this is the cheap part;
//   3. (parallel) per class: merge the committed mints into the shared
//                 witness-group indexes (disjoint per class), one barrier.
//
// Misprediction safety: phase 2b applies the *real* incremental FD phase per
// mint, so even if the phase-2a shadow simulation were ever wrong and a merge
// fired mid-commit, the bytes produced so far are exactly the bulk core's —
// the sweep aborts like a bulk sweep and the next one rebuilds. A wrong plan
// can cost parallelism, never correctness.
#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "chase/bulk.h"
#include "chase/chase.h"
#include "chase/control.h"
#include "chase/parallel.h"

namespace cqchase {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

// One pending (conjunct, IND) application, in scalar selection order.
// Phases communicate exclusively through these: phase 1 fills the decision
// fields (each class writes only its own pairs), phase 2a fills new_id.
struct ParallelPair {
  uint64_t source_id = 0;
  uint32_t ind = 0;
  uint32_t cls = 0;  // witness class (rhs relation, first-appearance order)
  // Phase 1 decision:
  bool mint = false;          // IND chase rule fires (vs cross arc)
  bool witness_real = false;  // cross witness is a pre-sweep conjunct
  uint64_t witness = 0;       // conjunct id if real, else in-class mint seq
  uint32_t seq = 0;           // class-local mint sequence number (mints only)
  Fact created;               // provisional minted fact; invalid Term = a
                              // fresh NDV to be minted at commit
  // Phase 2a reservation:
  uint64_t new_id = 0;  // the exact id the scalar core would assign
};

// Phase-1 cross-thread poll outcome (phase 1 itself never touches
// Chase::PollControl — control_polls_ is not atomic).
enum class FrontierTrip : uint32_t {
  kNone = 0,
  kCancelled = 1,
  kDeadline = 2,
};

}  // namespace

Result<bool> Chase::RunLevelFrontier(uint32_t effective) {
  BulkState& b = *bulk_;
  const std::vector<InclusionDependency>& inds = deps_->inds();
  if (inds.empty()) return false;
  const size_t words = considered_.words_per_row();

  // --- Phase 0: rebuild witnesses if stale, snapshot the frontier. --------
  const SteadyClock::time_point retain_start = SteadyClock::now();
  if (b.witness_dirty) RebuildWitnessGroups();

  // Identical frontier selection to RunLevelBatch: alive conjuncts at the
  // minimum level below `effective` with unconsidered applicable INDs.
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

  // Snapshot every pending pair in the scalar (level, fact, id, ind) order.
  // The snapshot is exact: within a sweep, considered_.Set(k, s) only flips
  // bits on s's own row, after s's pending set was read — so no pair's
  // pending status depends on processing another pair.
  std::vector<ParallelPair> pairs;
  std::vector<RelationId> class_relation;  // cls -> rhs relation
  std::vector<std::vector<size_t>> class_pairs;  // cls -> pair indexes
  std::vector<uint32_t> class_of_relation(catalog_->num_relations(),
                                          BulkState::kNone);
  std::vector<bool> ind_present(inds.size(), false);
  for (const uint64_t source_id : frontier) {
    const std::vector<uint64_t>& mask =
        *b.Applicable(conjuncts_[IndexOfId(source_id)].fact.relation);
    const uint64_t* row = considered_.Row(source_id);
    for (size_t w = 0; w < words; ++w) {
      uint64_t bits = mask[w] & ~(row != nullptr ? row[w] : 0);
      while (bits != 0) {
        const uint32_t k = static_cast<uint32_t>(
            w * 64 + static_cast<size_t>(__builtin_ctzll(bits)));
        bits &= bits - 1;
        const RelationId rel = inds[k].rhs_relation;
        uint32_t& cls = class_of_relation[rel];
        if (cls == BulkState::kNone) {
          cls = static_cast<uint32_t>(class_relation.size());
          class_relation.push_back(rel);
          class_pairs.emplace_back();
        }
        class_pairs[cls].push_back(pairs.size());
        ParallelPair p;
        p.source_id = source_id;
        p.ind = k;
        p.cls = cls;
        pairs.push_back(std::move(p));
        ind_present[k] = true;
      }
    }
  }
  stats_.retain_ms += MsSince(retain_start);
  if (pairs.size() < limits_.parallel_min_pairs) {
    ++stats_.parallel_small_levels;
    return RunLevelBatch(effective);
  }

  // --- Phase 1: class-parallel witness decisions (read-only on shared
  // state; each task writes only its own class's pairs). -------------------
  const SteadyClock::time_point plan_start = SteadyClock::now();
  std::atomic<uint32_t> trip_flag{
      static_cast<uint32_t>(FrontierTrip::kNone)};

  auto class_task = [&](uint32_t cls) {
    // Overlay of this class's in-sweep mints over the shared group indexes:
    // (group, projection) -> mint pair indexes in class (= mint-seq) order.
    // Only all-valid projections are registered — a projection containing a
    // fresh NDV can never equal a probe key built from pre-existing terms.
    std::map<std::pair<uint32_t, std::vector<Term>>, std::vector<size_t>>
        overlay;

    // Comparators over provisional facts (same relation; an invalid term is
    // a fresh NDV yet to be minted). Validity rests on two invariants:
    // fresh NDVs are minted above every term of the chase (NdvShard: the
    // chase id region, increasing leases, MintAbove at Init), and commit
    // mints fact-by-fact in seq order, so NDV ids order by seq
    // and, within a fact, by column.
    auto prov_less_real = [](const ParallelPair& a, const Fact& real) {
      for (size_t c = 0; c < a.created.terms.size(); ++c) {
        const Term t = a.created.terms[c];
        if (!t.is_valid()) return false;  // fresh > any existing term
        if (t != real.terms[c]) return t < real.terms[c];
      }
      return false;  // equal facts: the real conjunct's id is smaller
    };
    auto prov_less_prov = [](const ParallelPair& a, const ParallelPair& o) {
      for (size_t c = 0; c < a.created.terms.size(); ++c) {
        const bool fa = !a.created.terms[c].is_valid();
        const bool fo = !o.created.terms[c].is_valid();
        if (!fa && !fo) {
          if (a.created.terms[c] != o.created.terms[c]) {
            return a.created.terms[c] < o.created.terms[c];
          }
          continue;
        }
        if (fa && fo) {
          if (a.seq != o.seq) return a.seq < o.seq;
          continue;
        }
        return fo;  // exactly one fresh; the fact with the real term wins
      }
      return false;  // identical only if the same pair
    };

    std::vector<Term> x_values;
    uint32_t next_seq = 0;
    size_t polls = 0;
    for (const size_t pi : class_pairs[cls]) {
      if ((polls++ & 0xFF) == 0) {
        if (control_ != nullptr) {
          if (control_->cancelled()) {
            trip_flag.store(static_cast<uint32_t>(FrontierTrip::kCancelled),
                            std::memory_order_relaxed);
          } else if (control_->deadline_passed()) {
            trip_flag.store(static_cast<uint32_t>(FrontierTrip::kDeadline),
                            std::memory_order_relaxed);
          }
        }
        if (trip_flag.load(std::memory_order_relaxed) !=
            static_cast<uint32_t>(FrontierTrip::kNone)) {
          return;
        }
      }
      ParallelPair& p = pairs[pi];
      const InclusionDependency& ind = inds[p.ind];
      const Fact& source_fact = conjuncts_[IndexOfId(p.source_id)].fact;
      x_values.clear();
      for (uint32_t c : ind.lhs_columns) {
        x_values.push_back(source_fact.terms[c]);
      }
      const bool fresh = plan_->has_fresh_columns(p.ind);

      // Witness probe: deterministic min (fact, id) over the shared group
      // index (pre-sweep conjuncts) and the overlay (earlier in-class
      // mints). Skipped when the probe cannot affect the decision — the
      // O-chase mints regardless when the IND has fresh columns.
      bool have_witness = false;
      bool witness_is_real = false;
      uint64_t witness_id = 0;
      const Fact* witness_fact = nullptr;  // real best
      size_t witness_pair = 0;             // provisional best
      if (variant_ == ChaseVariant::kRequired || !fresh) {
        const uint32_t g = b.group_of_ind[p.ind];
        const BulkState::WitnessGroup& group = b.groups[g];
        const auto it = group.index.find(x_values);
        if (it != group.index.end() && !it->second.empty()) {
          have_witness = true;
          witness_is_real = true;
          witness_fact = &it->second.begin()->first;
          witness_id = it->second.begin()->second;
        }
        const auto ov = overlay.find({g, x_values});
        if (ov != overlay.end()) {
          for (const size_t cand : ov->second) {
            const bool better =
                !have_witness ||
                (witness_is_real
                     ? prov_less_real(pairs[cand], *witness_fact)
                     : prov_less_prov(pairs[cand], pairs[witness_pair]));
            if (better) {
              have_witness = true;
              witness_is_real = false;
              witness_pair = cand;
            }
          }
        }
      }

      // Same decision rule as the scalar/bulk cores: cross to the witness
      // iff one exists and (R-chase, or the mint would be an exact dup).
      if (have_witness &&
          (variant_ == ChaseVariant::kRequired || !fresh)) {
        p.mint = false;
        p.witness_real = witness_is_real;
        p.witness =
            witness_is_real ? witness_id : uint64_t{pairs[witness_pair].seq};
        continue;
      }
      p.mint = true;
      p.seq = next_seq++;
      p.created.relation = ind.rhs_relation;
      p.created.terms.assign(catalog_->arity(ind.rhs_relation), Term());
      for (size_t i = 0; i < ind.rhs_columns.size(); ++i) {
        p.created.terms[ind.rhs_columns[i]] = x_values[i];
      }
      for (const uint32_t g : b.Relation(ind.rhs_relation)->groups) {
        const BulkState::WitnessGroup& group = b.groups[g];
        std::vector<Term> projection;
        projection.reserve(group.columns->size());
        bool all_valid = true;
        for (const uint32_t col : *group.columns) {
          const Term t = p.created.terms[col];
          if (!t.is_valid()) {
            all_valid = false;
            break;
          }
          projection.push_back(t);
        }
        if (all_valid) {
          overlay[{g, std::move(projection)}].push_back(pi);
        }
      }
    }
  };

  // Launch depth-layer by depth-layer per SigmaGraph::frontiers() (via the
  // plan's precomputed ChasePlan::depth), barrier per layer.
  std::map<uint32_t, std::vector<uint32_t>> layers;  // depth -> classes
  for (uint32_t cls = 0; cls < class_relation.size(); ++cls) {
    uint32_t depth = std::numeric_limits<uint32_t>::max();
    for (const size_t pi : class_pairs[cls]) {
      depth = std::min(depth, plan_->depth(pairs[pi].ind));
    }
    layers[depth].push_back(cls);
  }
  uint64_t sweep_layers = 0;
  uint64_t sweep_max_width = 0;
  auto run_tasks = [&](std::vector<std::function<void()>> tasks) {
    if (limits_.runner != nullptr && tasks.size() > 1) {
      limits_.runner->RunAll(std::move(tasks));
    } else {
      for (auto& task : tasks) task();
    }
  };
  for (const auto& [depth, classes] : layers) {
    ++sweep_layers;
    sweep_max_width = std::max<uint64_t>(sweep_max_width, classes.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(classes.size());
    for (const uint32_t cls : classes) {
      tasks.push_back([&class_task, cls] { class_task(cls); });
    }
    run_tasks(std::move(tasks));
    const auto tripped =
        static_cast<FrontierTrip>(trip_flag.load(std::memory_order_relaxed));
    if (tripped != FrontierTrip::kNone) {
      // Nothing has been mutated; the sweep simply never happened.
      stats_.plan_ms += MsSince(plan_start);
      return tripped == FrontierTrip::kCancelled
                 ? Status::Cancelled("request cancelled")
                 : Status::DeadlineExceeded("request deadline exceeded");
    }
  }

  // --- Phase 2a: sequential pure simulation — reserve the exact scalar id
  // sequence, predict limit trips, shadow the incremental FD check. --------
  enum class PlanTrip { kNone, kSteps, kConjuncts };
  PlanTrip plan_trip = PlanTrip::kNone;
  size_t plan_end = pairs.size();
  uint64_t sim_id = next_id_;
  size_t sim_conjuncts = conjuncts_.size();
  const uint64_t base_steps = stats_.steps;
  const bool have_fds = !deps_->fds().empty();
  // Per-FD shadow of what the incremental phase would insert/adopt during
  // the sweep; values are mint pair indexes. Keys containing a fresh NDV
  // are skipped: such a key can only equal a key containing the very same
  // NDV, i.e. its own fact's.
  std::vector<std::map<std::vector<Term>, size_t>> shadow(
      have_fds ? deps_->fds().size() : 0);
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (base_steps + i + 1 > limits_.max_steps) {
      plan_trip = PlanTrip::kSteps;
      plan_end = i;
      break;
    }
    ParallelPair& p = pairs[i];
    if (!p.mint) continue;
    if (sim_conjuncts >= limits_.max_conjuncts) {
      plan_trip = PlanTrip::kConjuncts;
      plan_end = i;
      break;
    }
    p.new_id = sim_id++;
    ++sim_conjuncts;
    if (!have_fds) continue;
    bool merge_predicted = false;
    for (uint32_t fd_i = 0; fd_i < deps_->fds().size() && !merge_predicted;
         ++fd_i) {
      const FunctionalDependency& fd = deps_->fds()[fd_i];
      if (fd.relation != p.created.relation) continue;
      std::vector<Term> key;
      key.reserve(fd.lhs.size());
      bool key_valid = true;
      for (const uint32_t col : fd.lhs) {
        const Term t = p.created.terms[col];
        if (!t.is_valid()) {
          key_valid = false;
          break;
        }
        key.push_back(t);
      }
      if (!key_valid) continue;
      const Term rhs = p.created.terms[fd.rhs];
      const auto sh = shadow[fd_i].find(key);
      if (sh != shadow[fd_i].end()) {
        // Representative is an earlier in-sweep mint. Distinct mints' fresh
        // NDVs are distinct, so any fresh rhs means inequality.
        const Term other_rhs = pairs[sh->second].created.terms[fd.rhs];
        merge_predicted =
            !rhs.is_valid() || !other_rhs.is_valid() || rhs != other_rhs;
        continue;
      }
      const auto re = fd_index_[fd_i].find(key);
      if (re != fd_index_[fd_i].end()) {
        const ChaseConjunct& other = conjuncts_[IndexOfId(re->second)];
        if (other.alive) {
          // rhs-equal keeps the existing representative (emplace does not
          // overwrite), so nothing enters the shadow.
          merge_predicted =
              !rhs.is_valid() || other.fact.terms[fd.rhs] != rhs;
          continue;
        }
        // Dead representative: the incremental phase adopts the new mint.
      }
      shadow[fd_i].emplace(std::move(key), i);
    }
    if (merge_predicted) {
      // A merge in this level: discard the (pure) plan and replay the whole
      // level through the serial bulk path, which handles the merge the
      // scalar way natively. Byte-identical by bulk's own parity argument.
      ++stats_.parallel_serialized_levels;
      stats_.plan_ms += MsSince(plan_start);
      return RunLevelBatch(effective);
    }
  }
  // The planned ids, per class in mint-seq order, for resolving provisional
  // cross witnesses at commit. A committed cross always points at an
  // earlier pair, so its witness mint is inside the plan too.
  std::vector<std::vector<uint64_t>> class_ids(class_relation.size());
  for (size_t i = 0; i < plan_end; ++i) {
    if (pairs[i].mint) class_ids[pairs[i].cls].push_back(pairs[i].new_id);
  }
  stats_.plan_ms += MsSince(plan_start);

  // --- Phase 2b: sequential commit of the planned prefix. -----------------
  ++stats_.bulk_batches;
  stats_.max_batch_rows =
      std::max<uint64_t>(stats_.max_batch_rows, frontier.size());
  ++stats_.parallel_sweeps;
  stats_.parallel_depth_layers += sweep_layers;
  stats_.parallel_max_depth_width =
      std::max(stats_.parallel_max_depth_width, sweep_max_width);
  for (const bool present : ind_present) {
    if (present) ++stats_.parallel_batches;
  }

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

  for (size_t i = 0; i < plan_end; ++i) {
    ParallelPair& p = pairs[i];
    // Same per-pair sequence as RunLevelBatch, with probe/decision replaced
    // by the precomputed plan. Limit trips cannot occur before plan_end —
    // the simulation counted identically.
    {
      const Status st = PollControl();
      if (!st.ok()) {
        // Committed mints are not in the witness groups yet; rebuild lazily.
        b.witness_dirty = true;
        return st;
      }
    }
    ++stats_.steps;
    ++stats_.bulk_ind_applications;
    considered_.Set(p.ind, p.source_id);
    if (!p.mint) {
      const uint64_t witness_id = p.witness_real
                                      ? p.witness
                                      : class_ids[p.cls][p.witness];
      MarkIndUsed(p.ind);
      arcs_.push_back(ChaseArc{p.source_id, witness_id, p.ind, /*cross=*/true});
      continue;
    }
    const uint32_t new_level = frontier_level + 1;
    Fact created = std::move(p.created);
    for (uint32_t col = 0; col < created.terms.size(); ++col) {
      if (!created.terms[col].is_valid()) {
        created.terms[col] = ndv_shard_.MakeChaseNdv(
            NdvProvenance{col, p.source_id, p.ind, new_level});
      }
    }
    const uint64_t new_id = next_id_++;
    assert(new_id == p.new_id);
    (void)new_id;
    SweepSegment(&acc, p.ind, new_level)
        .AppendRow(created, p.new_id, p.source_id);
    conjuncts_.push_back(ChaseConjunct{p.new_id, std::move(created), new_level,
                                       /*alive=*/true, p.source_id, p.ind});
    MarkIndUsed(p.ind);
    arcs_.push_back(ChaseArc{p.source_id, p.new_id, p.ind, /*cross=*/false});
    fd_queue_.push_back(p.new_id);
    if (have_fds) {
      // The real incremental FD bookkeeping (emplace / dead-rep adoption),
      // which the simulation predicted to be merge-free. If it was wrong and
      // a merge fires anyway, everything committed so far is exactly what
      // the bulk core would have produced — abort the sweep like bulk does.
      const Status st = RunFdPhase();
      if (!st.ok()) {
        b.witness_dirty = true;
        return st;
      }
      if (outcome_ == ChaseOutcome::kEmptyQuery || b.witness_dirty) {
        return true;
      }
    }
  }

  // --- Phase 3: class-parallel merge of committed mints into the shared
  // witness groups (disjoint relation -> disjoint groups), one barrier. ----
  {
    std::vector<std::function<void()>> tasks;
    for (uint32_t cls = 0; cls < class_ids.size(); ++cls) {
      if (class_ids[cls].empty()) continue;
      tasks.push_back([this, &class_ids, cls] {
        for (const uint64_t id : class_ids[cls]) {
          AddToWitnessGroups(conjuncts_[IndexOfId(id)]);
        }
      });
    }
    run_tasks(std::move(tasks));
  }

  // --- Predicted limit trip: replay the tripping pair's scalar side
  // effects (witness groups are already current, matching bulk). -----------
  if (plan_trip != PlanTrip::kNone) {
    const ParallelPair& p = pairs[plan_end];
    CQCHASE_RETURN_IF_ERROR(PollControl());
    ++stats_.steps;
    ++stats_.bulk_ind_applications;
    if (plan_trip == PlanTrip::kSteps) {
      return Status::ResourceExhausted(
          StrCat("chase exceeded max_steps=", limits_.max_steps));
    }
    considered_.Set(p.ind, p.source_id);
    // The scalar sequence mints the fact's fresh NDVs before noticing the
    // conjunct limit; those ids are spent.
    for (uint32_t col = 0; col < p.created.terms.size(); ++col) {
      if (!p.created.terms[col].is_valid()) {
        ndv_shard_.MakeChaseNdv(
            NdvProvenance{col, p.source_id, p.ind, frontier_level + 1});
      }
    }
    return Status::ResourceExhausted(
        StrCat("chase exceeded max_conjuncts=", limits_.max_conjuncts));
  }
  return true;
}

Result<ChaseOutcome> Chase::ParallelExpandToLevel(uint32_t effective) {
  if (bulk_ == nullptr) PrepareBulk();
  while (true) {
    CQCHASE_RETURN_IF_ERROR(PollControl());
    CQCHASE_RETURN_IF_ERROR(RunFdPhase());
    if (outcome_ == ChaseOutcome::kEmptyQuery) return outcome_;
    CQCHASE_ASSIGN_OR_RETURN(bool progressed, RunLevelFrontier(effective));
    if (!progressed) break;
  }
  outcome_ = BulkHasPendingWork(std::numeric_limits<uint32_t>::max())
                 ? ChaseOutcome::kTruncated
                 : ChaseOutcome::kSaturated;
  return outcome_;
}

}  // namespace cqchase
