// The chase of a conjunctive query with respect to a set Σ of FDs and INDs
// (Section 3 of Johnson & Klug).
//
// FD CHASE RULE. For an FD R: Z -> A applicable to conjuncts c1, c2 (same
// Z-values, different A-values), identify c1[A] and c2[A] everywhere. If both
// are constants the query is contradictory: all conjuncts are deleted and the
// chase halts ("empty query"). If one is a constant the constant survives;
// if both are variables the lexicographically first survives (DVs precede
// NDVs).
//
// IND CHASE RULE. For an IND R[X] ⊆ S[Y] applicable to a conjunct c (i.e.,
// R(c) = R), add a new conjunct c' over S with c'[Y] = c[X] and a fresh NDV
// in every other column; level(c') = level(c) + 1.
//
// Two disciplines for the IND rule:
//  * O-chase ("oblivious"): every IND is applied once to every conjunct to
//    which it is applicable, including chase-created ones.
//  * R-chase ("required"): an IND is applied to c only if no conjunct c'
//    with R(c') = S and c'[Y] = c[X] already exists; otherwise a *cross arc*
//    to the existing witness is recorded.
//
// Both chases can be infinite; the engine is incremental: ExpandToLevel(L)
// completes the prefix up to level L and can be resumed with a larger L.
// Construction order follows the paper exactly: exhaust applicable FDs, then
// apply one IND step to the lexicographically first minimum-level conjunct
// with the lexicographically first applicable (required) IND, repeat.
#ifndef CQCHASE_CHASE_CHASE_H_
#define CQCHASE_CHASE_CHASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "chase/control.h"
#include "chase/plan.h"
#include "chase/projection_index.h"
#include "chase/segment.h"
#include "cq/fact.h"
#include "cq/query.h"
#include "data/instance.h"
#include "deps/dependency_set.h"
#include "schema/catalog.h"
#include "symbols/symbol_table.h"

namespace cqchase {

enum class ChaseVariant {
  kOblivious,  // O-chase
  kRequired,   // R-chase
};

// Which executor drives the IND phase. Both cores produce bit-identical
// chase prefixes (same conjunct ids, levels, facts, arcs, outcome, and step
// counts) — the scalar core is the paper-literal oracle, the bulk core the
// set-at-a-time columnar engine (see chase/bulk.h). Equivalence is enforced
// differentially by tests/chase_core_parity_test.cc.
enum class ChaseCoreMode {
  kScalar,  // one PendingStep at a time (reference/oracle)
  kBulk,    // level-frontier batches over columnar segments (default)
};

// Resource budgets for one chase. Limits make truncation explicit: hitting
// one never yields a wrong chase, only an incomplete prefix.
struct ChaseLimits {
  uint32_t max_level = 64;
  size_t max_conjuncts = 200000;
  size_t max_steps = 2000000;
  ChaseCoreMode core = ChaseCoreMode::kBulk;
};

enum class ChaseOutcome {
  // No applicable (required) dependency remains anywhere: the chase is
  // finite and this object holds all of it.
  kSaturated,
  // The prefix up to the requested level is complete, but deeper conjuncts
  // have unprocessed dependencies (possibly an infinite chase).
  kTruncated,
  // The FD rule merged two distinct constants: the query is unsatisfiable
  // under Σ and the chase is the empty query.
  kEmptyQuery,
};

// One conjunct of the (partial) chase.
struct ChaseConjunct {
  uint64_t id = 0;       // creation order, stable across merges
  Fact fact;             // current value (post all FD substitutions so far)
  uint32_t level = 0;    // paper's level: 0 for Q's conjuncts, parent+1 else
  bool alive = true;     // false once merged into an earlier conjunct
  // Ordinary-arc parent: the conjunct this one was created from by an IND
  // application; nullopt for level-0 roots.
  std::optional<uint64_t> parent;
  std::optional<uint32_t> parent_ind;  // index into deps.inds()
};

// Arc of the chase graph. Ordinary arcs are creation edges; cross arcs are
// R-chase edges to an already-present witness conjunct (recorded in the
// O-chase only when an application would duplicate an existing conjunct).
struct ChaseArc {
  uint64_t from = 0;
  uint64_t to = 0;
  uint32_t ind_index = 0;
  bool cross = false;
};

struct BulkState;  // chase/bulk.h

class Chase {
 public:
  // A chase of the plan's Σ over the plan's catalog (chase/plan.h). Any
  // number of chases, on any threads, may share one plan. The engine
  // creates fresh NDVs in `symbols` as it runs; `symbols` must outlive the
  // Chase and be the table `query` was built against.
  Chase(std::shared_ptr<const ChasePlan> plan, SymbolTable* symbols,
        ChaseVariant variant, ChaseLimits limits);
  // Compiles a private plan of *deps (not copied: `catalog` and `deps` must
  // outlive the Chase) and runs exactly the code above.
  Chase(const Catalog* catalog, SymbolTable* symbols,
        const DependencySet* deps, ChaseVariant variant, ChaseLimits limits);
  ~Chase();
  Chase(Chase&&) noexcept;
  Chase& operator=(Chase&&) noexcept;

  // Loads Q's conjuncts at level 0 and runs the initial FD phase.
  // Must be called exactly once, before any Expand call.
  Status Init(const ConjunctiveQuery& query);

  // Completes the chase prefix up to `level`: afterwards, every alive
  // conjunct with level < `level` has had every applicable IND considered,
  // and no FD is applicable. Monotone and resumable. Returns the outcome
  // (kTruncated means "complete up to `level`, more beyond"; a limit hit
  // yields kResourceExhausted status instead).
  Result<ChaseOutcome> ExpandToLevel(uint32_t level);

  // Runs to the configured limits.
  Result<ChaseOutcome> Run() { return ExpandToLevel(limits_.max_level); }

  // Attaches (or detaches, with nullptr) a cooperative cancellation /
  // deadline control. Polled between chase steps: cancellation every step,
  // the deadline every ChaseControl::kClockPollStride steps. A tripped
  // control unwinds ExpandToLevel with kCancelled / kDeadlineExceeded and —
  // like a resource limit — leaves a consistent prefix that a later call
  // (under a fresh or cleared control) can resume. The control must outlive
  // every Expand call made while it is attached.
  void set_control(const ChaseControl* control) { control_ = control; }

  // --- Inspection ---------------------------------------------------------

  const SymbolTable& symbols() const { return *symbols_; }
  const ChasePlan& plan() const { return *plan_; }
  // The Σ this chase runs on (the plan's): every IND index the chase
  // reports — arcs, parent_ind, used_inds(), NDV provenance — numbers
  // deps().inds().
  const DependencySet& deps() const { return *deps_; }
  const std::vector<ChaseConjunct>& conjuncts() const { return conjuncts_; }
  const std::vector<ChaseArc>& arcs() const { return arcs_; }
  const std::vector<Term>& summary() const { return summary_; }
  ChaseOutcome outcome() const { return outcome_; }
  bool is_empty_query() const { return outcome_ == ChaseOutcome::kEmptyQuery; }

  // Alive conjunct facts, optionally restricted to level <= max_level.
  std::vector<Fact> AliveFacts(
      std::optional<uint32_t> max_level = std::nullopt) const;

  // Alive conjuncts (id, fact, level), sorted by (level, id).
  std::vector<const ChaseConjunct*> AliveConjuncts() const;
  // AliveConjuncts().size(), kept as a count.
  size_t alive_count() const { return alive_count_; }

  // Number of alive conjuncts at the given level.
  size_t CountAtLevel(uint32_t level) const;
  uint32_t MaxAliveLevel() const;

  // The chase viewed as a query: alive conjuncts + current summary row
  // (Theorem 1's chase_Σ(Q)). Variables in chase conjuncts keep their kinds.
  ConjunctiveQuery AsQuery() const;

  // The chase viewed as a database instance (each variable read as a fresh
  // constant — terms are carried over verbatim; Instance treats all terms as
  // values).
  Instance AsInstance() const;

  // Applies the accumulated FD substitution to a term (identity if the term
  // was never merged). Exposed for tests of the merge discipline.
  Term ResolveTerm(Term t) const;

  // Total chase-rule applications so far (FD + IND steps).
  size_t steps() const { return static_cast<size_t>(stats_.steps); }

  // Counters and phase timers (see chase/segment.h). Monotone across
  // ExpandToLevel calls.
  const ChaseStats& chase_stats() const { return stats_; }

  // Used-dependency capture for Σ-lineage (engine/lineage.h): which INDs
  // fired (minted a conjunct or recorded a cross arc) and which FDs merged
  // anywhere in this prefix so far. Monotone and cumulative across
  // ExpandToLevel calls. Indexed like deps.inds() / deps.fds(); identical
  // across the two cores because the marks sit on the shared FD-merge site
  // and on each core's arc-recording sites, which the parity contract keeps
  // byte-identical.
  const std::vector<bool>& used_inds() const { return used_inds_; }
  const std::vector<bool>& used_fds() const { return used_fds_; }

  // Columnar provenance built by the bulk core; empty under kScalar.
  const SegmentStore& segments() const { return segments_; }

  // O(1) lookup by conjunct id (ids are dense creation indices), nullptr if
  // out of range. The returned conjunct may be dead (merged away).
  const ChaseConjunct* ConjunctById(uint64_t id) const {
    return id < conjuncts_.size() ? &conjuncts_[id] : nullptr;
  }

  std::string ToString() const;

 private:
  // Runs the FD phase: applies the FD chase rule until no FD is applicable,
  // choosing the lexicographically first conjunct pair, then the first FD.
  // May set outcome_ = kEmptyQuery.
  Status RunFdPhase();

  // Finds and performs one IND step below `level`. Returns true if a step
  // was taken; false if no conjunct with level < `level` has an unconsidered
  // applicable IND.
  Result<bool> OneIndStep(uint32_t level);

  // True iff some alive conjunct at level < `level` still has an
  // unconsidered applicable IND.
  bool HasPendingIndWork(uint32_t level);

  // Applies fd to conjuncts a, b (indices into conjuncts_). Returns false if
  // the merge hit a constant clash (outcome_ set to kEmptyQuery).
  bool ApplyFd(const FunctionalDependency& fd, size_t a, size_t b);

  // Merges term `loser` into `winner` everywhere; dedupes conjuncts.
  void SubstituteTerm(Term winner, Term loser);

  // Re-canonicalizes conjuncts after a substitution: facts equal as tuples
  // are merged (min level, min id survive; arcs are redirected).
  void DedupeConjuncts();

  // First alive conjunct whose fact matches (rhs_relation, Y = values), or
  // nullopt. Deterministic: smallest fact, then smallest id. Served from
  // witness_index_.
  std::optional<uint64_t> FindWitness(uint32_t ind_index,
                                      const std::vector<Term>& x_values);

  size_t IndexOfId(uint64_t id) const;
  // The conjuncts' facts by id, valid until conjuncts_ next reallocates.
  FactTable ConjunctFacts() const {
    return FactTable(conjuncts_, &ChaseConjunct::fact);
  }

  // --- Performance indices -------------------------------------------------
  // Pure caches over conjuncts_ / considered_; rebuilt lazily whenever an FD
  // substitution mutates facts (index_dirty_). They turn the per-step
  // selection scans — O(|conjuncts|·|Σ|) in the naive reading of the paper's
  // procedure — into O(log) lookups without changing which step is chosen.

  // One unconsidered applicable (conjunct, IND) pair. Ordered exactly as the
  // paper's selection rule reads candidates: minimum level first, then
  // lexicographically smallest fact, then creation id, then IND index — so
  // *pending_.begin() is always the next step to take.
  struct PendingStep {
    uint32_t level;
    Fact fact;
    uint64_t id;
    uint32_t ind;

    friend bool operator<(const PendingStep& a, const PendingStep& b) {
      if (a.level != b.level) return a.level < b.level;
      if (a.fact != b.fact) return a.fact < b.fact;
      if (a.id != b.id) return a.id < b.id;
      return a.ind < b.ind;
    }
  };

  // Rebuilds pending_ and witness_index_ from scratch.
  void RebuildIndices();
  // Adds index entries for a newly created conjunct (no rebuild needed:
  // creation never mutates existing facts).
  void IndexNewConjunct(const ChaseConjunct& conjunct);

  // Polls the attached control (no-op when none): cancellation every call,
  // the deadline every kClockPollStride-th call.
  Status PollControl();

  // The full FD phase: scan-based saturation, then rebuilds fd_index_.
  Status RunFullFdPhase();
  // Checks only the queued newly-created conjuncts against fd_index_;
  // escalates to the full phase when a merge fires.
  Status RunIncrementalFdPhase();

  // --- Bulk (set-at-a-time) core; implemented in chase/bulk.cc ------------
  // Level-frontier loop replacing the scalar OneIndStep loop under
  // ChaseCoreMode::kBulk. Produces a prefix identical to the scalar core.
  Result<ChaseOutcome> BulkExpandToLevel(uint32_t effective);
  // One frontier sweep: collects the minimum-level pending frontier below
  // `effective`, applies every unconsidered applicable IND across it, and
  // flushes one columnar segment per (level, IND). Returns true if any
  // (conjunct, IND) pair was processed.
  Result<bool> RunLevelBatch(uint32_t effective);
  // Pending-work probe without the scalar pending_ set: true iff some alive
  // conjunct, at any level, has an applicable IND its considered_ row does
  // not hold. Advances the frontier watermark (chase/bulk.h) past the
  // conjuncts without pending work, so it costs O(conjuncts it passes).
  bool BulkHasPendingWork();
  // Whether `conjunct`'s relation mask has an IND its considered_ row lacks.
  bool HasPendingInds(const ChaseConjunct& conjunct) const;
  // Instantiates bulk_ from the plan: reachable INDs, masks, witness groups.
  void PrepareBulk();
  void RebuildWitnessGroups();  // from-scratch witness rebuild (post-merge)
  void AddToWitnessGroups(const ChaseConjunct& conjunct);
  // The open sweep's segment builder for IND `ind`, opened at `level` on
  // the IND's first mint of the sweep. The reference is valid until the
  // next call.
  SegmentBuilder& SweepSegment(uint32_t ind, uint32_t level);
  // Stores a finished sweep's segments in segments_, ascending by IND.
  void FlushSweepSegments();

  std::shared_ptr<const ChasePlan> plan_;
  const Catalog* catalog_;     // &plan_->catalog()
  SymbolTable* symbols_;
  const DependencySet* deps_;  // &plan_->deps()
  ChaseVariant variant_;
  ChaseLimits limits_;
  // Per-chase NDV allocation shard: IND steps mint fresh NDVs without
  // touching the SymbolTable mutex, so concurrent chases (executor workers)
  // never contend on the arena. Every leased block returns to the table on
  // destruction: this chase's NDVs live exactly as long as it does.
  SymbolTable::NdvShard ndv_shard_;

  // Marks IND k as having shaped the prefix; every arc-recording site in
  // every core calls this alongside its arcs_.push_back.
  void MarkIndUsed(uint32_t ind_index) { used_inds_[ind_index] = true; }

  std::vector<ChaseConjunct> conjuncts_;
  size_t alive_count_ = 0;  // conjuncts_ entries with alive set
  std::vector<ChaseArc> arcs_;
  std::vector<Term> summary_;
  // Used-dependency bitmaps (see used_inds()/used_fds()); sized at
  // construction, set by MarkIndUsed and ApplyFd.
  std::vector<bool> used_inds_;
  std::vector<bool> used_fds_;
  // (ind_index, conjunct_id) pairs already considered by the IND discipline,
  // as a dense bitmap (one row of |inds| bits per conjunct).
  ConsideredSet considered_;
  // Accumulated FD substitution, applied lazily via ResolveTerm.
  std::unordered_map<Term, Term> substitution_;

  // Caches (see PendingStep above). witness_index_[k] maps the projection of
  // a fact of inds()[k].rhs_relation onto inds()[k].rhs_columns to the alive
  // conjuncts carrying that projection, ordered (fact, id) so begin() is the
  // deterministic witness.
  std::set<PendingStep> pending_;
  std::vector<std::map<std::vector<Term>, std::set<std::pair<Fact, uint64_t>>>>
      witness_index_;
  bool index_dirty_ = true;

  // The FD index: per FD, the alive conjuncts of its relation keyed by
  // their lhs values (a ProjectionIndex on fd.lhs), one representative id
  // per key; plus the queue of conjuncts created since the last FD check.
  // Keeping the FD phase incremental matters: the paper's procedure re-runs
  // the FD rule between any two IND steps, which read naively is a full
  // rescan per step. Keys are read in place from the representatives'
  // facts, which hold still between rebuilds: every merge sets
  // fd_index_dirty_, and the full phase rebuilds the index before the next
  // incremental check reads it.
  std::vector<ProjectionIndex> fd_index_;
  std::vector<uint64_t> fd_queue_;
  bool fd_index_dirty_ = true;
  // The full FD phase's scratch (one FD's (fact, id)-ordered scan), kept
  // between phases so a phase allocates nothing once warm.
  ProjectionIndex fd_scan_;
  std::vector<uint64_t> fd_order_;

  ChaseOutcome outcome_ = ChaseOutcome::kTruncated;
  bool initialized_ = false;
  uint64_t next_id_ = 0;
  ChaseStats stats_;
  // Columnar provenance (bulk core only; stays empty under kScalar).
  SegmentStore segments_;
  // Lazily allocated bulk-core working state (chase/bulk.h).
  std::unique_ptr<BulkState> bulk_;
  const ChaseControl* control_ = nullptr;
  uint32_t control_polls_ = 0;
};

// Convenience: builds and runs a chase to `limits.max_level`.
Result<Chase> BuildChase(const ConjunctiveQuery& query,
                         const DependencySet& deps, SymbolTable& symbols,
                         ChaseVariant variant, ChaseLimits limits = {});

}  // namespace cqchase

#endif  // CQCHASE_CHASE_CHASE_H_
