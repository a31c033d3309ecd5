// ContainmentEngine: the single entry point for every containment /
// equivalence / minimization / finite-containment question the library can
// answer. The engine layers, bottom to top:
//
//  1. Σ-classification (engine/sigma_class.h): AnalyzeSigma picks the
//     cheapest sound strategy per task — pure homomorphism for empty Σ, the
//     finite FD chase for FD-only Σ, the PSPACE frontier-streaming procedure
//     for IND-only Σ with single-conjunct Q', Lemma-5-bounded iterative
//     deepening for the remaining decidable classes, and a sound
//     semi-decision (opt-in) for general mixes.
//  2. Canonicalization + memoization (engine/canonical.h): verdicts are
//     cached under an isomorphism-invariant key of (Q, Q', Σ, variant), so a
//     re-ask of the same question — even with renamed variables or permuted
//     conjuncts — returns instantly (this is also what absorbs repeated or
//     isomorphic candidates in greedy Σ-minimization, whose chased side
//     changes on every probe); chase prefixes are cached under an exact key
//     of (Q, Σ, variant) and resumed, so loops that probe one fixed Q
//     against many Q' (equivalence checks, repeated asks about one query)
//     stop re-chasing. All three caches (verdict, Σ-analysis, chase prefix)
//     evict least-recently-used with independent capacity knobs; chase
//     prefixes are reference-counted and *shared* — N concurrent askers of
//     the same exact (Q, Σ, variant) serialize on that one entry's mutex
//     and extend a single chase instead of re-chasing from scratch.
//     Minimization's candidate-side probes are tagged non-prefix-cacheable
//     (their exact keys never repeat, so caching them would only pin dead
//     chases until eviction).
//     The verdict side of this layer is a composable *tier stack*
//     (engine/tier.h): EngineConfig::tiers declares a hierarchy of
//     VerdictTier backends probed cheapest-first — by default just the
//     in-memory LRU; optionally a persistent VerdictStore (engine/store.h)
//     behind it, a RemoteTier sharing a verdict authority with other
//     engines (engine/remote_tier.h), or any backend implementing the
//     interface. A miss at tier N falls through to N+1; a hit is promoted
//     into every cheaper tier; a hit at any non-LRU tier bypasses the chase
//     entirely; new verdicts fan out to every tier and reach
//     disk/network through write-behind flushes on the executor — the hot
//     path never waits on I/O.
//  3. Async request execution (engine/request.h + engine/executor.h):
//     Submit(ContainmentRequest) -> EngineFuture<EngineOutcome> runs every
//     request on a persistent work-stealing thread pool shared across calls.
//     Requests own their inputs, carry per-request policy (deadline,
//     want_certificate, semi-decision override), support
//     cooperative cancellation threaded through the chase deepening loop,
//     and can return a Theorem 2 certificate extracted from the *same*
//     chase the decision ran. SubmitAll fans a burst out, warming the tier
//     stack with one batched probe first; Check is the inline synchronous
//     form.
//
// Adding a new decision strategy is a three-step recipe (see README):
// extend DecisionStrategy + ChooseStrategy in engine/sigma_class.h, add the
// execution arm in ContainmentEngine::DecideUncached, and cover the route in
// tests/engine_dispatch_test.cc.
//
// All defaults (chase limits, variant, semi-decision policy) flow from
// EngineConfig::containment — call sites no longer restate them; a
// RequestOptions can override the per-request subset of that policy.
#ifndef CQCHASE_ENGINE_ENGINE_H_
#define CQCHASE_ENGINE_ENGINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chase/chase.h"
#include "chase/control.h"
#include "chase/plan.h"
#include "core/certificate.h"
#include "core/containment.h"
#include "core/minimize.h"
#include "cq/query.h"
#include "data/instance.h"
#include "deps/dependency_set.h"
#include "engine/canonical.h"
#include "engine/executor.h"
#include "engine/lru_cache.h"
#include "engine/request.h"
#include "engine/sigma_class.h"
#include "engine/store.h"
#include "engine/tier.h"
#include "finite/finite_containment.h"

namespace cqchase {

struct EngineConfig {
  // The single source of decision-procedure defaults (limits, chase variant,
  // semi-decision policy). Everything the engine runs — containment,
  // equivalence, minimization, streaming, FD unification — derives its
  // budgets from here. RequestOptions can override the per-request subset.
  ContainmentOptions containment;

  // Layer 2: verdict + Σ-analysis + chase-prefix memoization. Each cache
  // evicts least-recently-used against its own bound (a capacity of 0
  // disables that cache alone; enable_cache = false disables all three).
  bool enable_cache = true;
  size_t verdict_cache_capacity = 1 << 16;  // canonical-key verdicts
  size_t sigma_cache_capacity = 1 << 12;    // Σ classifications
  size_t chase_cache_capacity = 32;         // shared chase prefixes retained

  // Layer 2.5: the verdict tier stack (engine/tier.h), probed in order on
  // every cacheable check — miss at tier N falls through to N+1, a hit is
  // promoted into every cheaper tier, new verdicts fan out to every tier
  // and are flushed write-behind on the executor.
  //
  // Empty (the default) assembles the classic single in-memory LRU of
  // verdict_cache_capacity entries. A non-empty vector is taken verbatim;
  // verdicts survive restarts behind a local-store tier (a store directory
  // has exactly one owner at a time — flock):
  //
  //   config.tiers = {TierSpec::Lru(1 << 16),
  //                   TierSpec::LocalStore("/var/cq/verdicts"),
  //                   TierSpec::Remote(transport)};
  //
  // Every tier's schema fingerprint is checked at assembly; a mismatched or
  // unconstructible tier is quarantined (see tier_descriptors()). The stack
  // rides the memoization layer, so it requires enable_cache (store_status()
  // reports kFailedPrecondition otherwise).
  std::vector<TierSpec> tiers;

  // Layer 1: route IND-only single-conjunct tasks to the PSPACE streaming
  // path. Streaming verdicts carry no witness homomorphism; callers that
  // need the witness (or byte-identical legacy reports) disable this.
  bool route_streaming_single_conjunct = true;

  // Layer 3: width of the shared work-stealing executor Submit runs on;
  // 0 means the hardware concurrency. Workers start lazily on the first
  // Submit.
  size_t executor_threads = 0;
};

// Monotone counters (plus two executor gauges); read via stats(). Counters
// are aggregated across executor workers and synchronous callers alike.
struct EngineStats {
  uint64_t checks = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t chase_prefix_reuses = 0;
  uint64_t chases_built = 0;
  // Tier stack: verdicts served from / published to the non-LRU tiers,
  // split by backend kind (derived from the per-tier counters — see
  // tier_stats() for the full per-tier breakdown). A store/remote hit is
  // counted on top of the cache_miss that preceded it (the in-memory tier
  // did miss); tier-served decisions build no chase.
  uint64_t store_hits = 0;
  uint64_t store_writes = 0;
  uint64_t remote_hits = 0;
  uint64_t remote_writes = 0;
  // Σ-lineage (EvolveSigma + tier hits): entries a schema delta kept —
  // re-keyed in place, exactly or as a monotone bound — vs entries it
  // invalidated; monotone_hits counts tier hits served at kMonotoneBound
  // confidence (sound for plain checks, but a differential suite may want
  // to re-decide them — see engine/lineage.h).
  uint64_t entries_retagged = 0;
  uint64_t entries_dropped = 0;
  uint64_t monotone_hits = 0;
  // Async surface.
  uint64_t submits = 0;
  uint64_t deadline_expirations = 0;
  uint64_t cancellations = 0;
  uint64_t certificates_built = 0;
  // Chase-core rollups (ChaseStats deltas harvested per asker turn —
  // shared-prefix chases attribute work to the turn that drove it).
  // segments_built / bulk_ind_applications stay zero under
  // ChaseCoreMode::kScalar; index_rebuilds counts scalar pending/witness
  // rebuilds and bulk witness-group rebuilds alike.
  uint64_t chase_steps = 0;
  uint64_t chase_index_rebuilds = 0;
  uint64_t segments_built = 0;
  uint64_t bulk_ind_applications = 0;
  // INDs the bulk core pruned as statically unreachable (Σ reliance
  // analysis); zero under kScalar and when every IND is reachable.
  uint64_t inds_pruned = 0;
  // Per-level witness searches of the chase decision loop, and how many of
  // them its semi-naive pre-check answered "no witness" without a full
  // search (every witness would have to use a fact the level added, and the
  // pre-check found none).
  uint64_t witness_searches = 0;
  uint64_t witness_searches_skipped = 0;
  // Queries whose canonical key fell back to its tie search's first leaf
  // (engine/canonical.h): keys that stay sound but may miss an isomorphic
  // re-ask's hit.
  uint64_t canonical_fallbacks = 0;
  // Executor health (Executor::stats passthrough): tasks/steals are
  // monotone, queue_depth (queued, not yet started) and workers are gauges.
  uint64_t executor_tasks = 0;
  uint64_t executor_steals = 0;
  uint64_t executor_queue_depth = 0;
  uint64_t executor_workers = 0;
  std::array<uint64_t, kNumStrategies> by_strategy = {};
};

class ContainmentEngine {
 public:
  // The engine serves one catalog + symbol-table universe; every query and
  // dependency set passed in must be built against them. `catalog` and
  // `symbols` must outlive the engine — strictly: the chase-prefix cache
  // holds live chases (each owning an NdvShard into `symbols`) until
  // ClearCaches() or destruction, so destroying the table first is
  // use-after-free, not just stale pointers. The chase creates NDVs in
  // `symbols`.
  ContainmentEngine(const Catalog* catalog, SymbolTable* symbols,
                    EngineConfig config = {});

  ContainmentEngine(const ContainmentEngine&) = delete;
  ContainmentEngine& operator=(const ContainmentEngine&) = delete;

  // Cancels every outstanding request (their futures resolve kCancelled),
  // then joins the executor after draining the queue: every future handed
  // out resolves before the engine dies, and teardown never hangs on a
  // dropped-future semi-decision with no deadline. Granularity caveat: a
  // request inside a single homomorphism/streaming search notices the
  // cancel only when that search returns (polls sit between chase steps
  // and deepening levels). Do not submit during destruction.
  ~ContainmentEngine();

  // --- Async decision API --------------------------------------------------

  // Submits one containment question for execution on the shared
  // work-stealing pool and returns immediately. The future resolves to the
  // verdict (plus certificate when requested); a deadline/cancellation trips
  // it to kDeadlineExceeded / kCancelled. The request's queries and Σ are
  // owned or shared by the request, so the caller's locals may go out of
  // scope freely; the engine keeps the request alive until it resolves.
  //
  // Do not block on a future from inside another request's execution (the
  // classic pool deadlock); Submit more work instead.
  EngineFuture<EngineOutcome> Submit(ContainmentRequest request);

  // Burst fan-out: one future per request, in order. The burst's tier keys
  // are prefetched first, so a network tier pays one batched round trip
  // instead of one per request.
  std::vector<EngineFuture<EngineOutcome>> SubmitAll(
      std::vector<ContainmentRequest> requests);

  // --- Synchronous decision API --------------------------------------------

  // Σ ⊨ Q ⊆∞ Q', dispatched per the Σ classification. Runs inline on the
  // calling thread (no executor hop).
  Result<EngineVerdict> Check(const ConjunctiveQuery& q,
                              const ConjunctiveQuery& q_prime,
                              const DependencySet& deps);

  // Σ ⊨ Q ≡∞ Q' (containment both ways, short-circuiting).
  Result<bool> CheckEquivalence(const ConjunctiveQuery& q,
                                const ConjunctiveQuery& q_prime,
                                const DependencySet& deps);

  // --- Optimization API (core/minimize.h semantics) ------------------------

  // Greedy Σ-minimization. The O(n²) near-identical containment checks this
  // issues are exactly what the memoization layer absorbs.
  Result<MinimizeReport> Minimize(const ConjunctiveQuery& q,
                                  const DependencySet& deps);

  Result<bool> IsNonMinimal(const ConjunctiveQuery& q,
                            const DependencySet& deps);

  // Pass-1 FD unification for the optimizer: Q replaced by its finite
  // FD-only chase. Returns the chased query (marked empty on constant
  // clash) plus the number of distinct variables eliminated.
  struct FdUnifyResult {
    ConjunctiveQuery query;
    size_t variables_unified = 0;
    bool proved_empty = false;
  };
  Result<FdUnifyResult> FdUnify(const ConjunctiveQuery& q,
                                const DependencySet& deps);

  // --- Finite containment (Section 4 / Theorem 3 tools) --------------------

  Result<std::optional<Instance>> ExhaustiveCounterexample(
      const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
      const DependencySet& deps, const ExhaustiveSearchParams& params = {});

  Result<std::optional<Instance>> RandomCounterexample(
      const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
      const DependencySet& deps, const RandomSearchParams& params = {});

  Result<std::optional<Instance>> FiniteCounterexample(
      const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
      const DependencySet& deps, const FiniteWitnessParams& params = {});

  // --- Introspection -------------------------------------------------------

  // The Σ analysis the dispatcher would use (cached per canonical Σ key, in
  // the Σ's record).
  SigmaAnalysis Analyze(const DependencySet& deps);

  // The strategy the dispatcher selects a priori for this (Q', Σ) shape, or
  // nullopt when Σ is general and semi-decision is off. Check can still end
  // up on kIterativeDeepening instead of the reported kStreamingFrontier in
  // two cases it resolves per-call: an empty-marked Q, and a streaming run
  // that exhausts its frontier budget and falls back.
  std::optional<DecisionStrategy> RouteOf(const ConjunctiveQuery& q_prime,
                                          const DependencySet& deps);

  EngineStats stats() const;

  // Current entry counts of the three caches (gauges, not counters) —
  // introspection for capacity/eviction tests and ops dashboards.
  // verdict_entries reads the first LRU tier of the stack.
  struct CacheSizes {
    size_t verdict_entries = 0;
    size_t sigma_entries = 0;
    size_t chase_entries = 0;
  };
  CacheSizes cache_sizes() const;

  const EngineConfig& config() const { return config_; }

  // --- tier-stack introspection ---
  // Per-tier hit/publish counters (one row per active tier, probe order)
  // and the assembly outcome of every configured tier — a quarantined tier
  // shows up here inactive with its reason, never silently absent.
  std::vector<VerdictTierStats> tier_stats() const;
  std::vector<TierStack::TierDescriptor> tier_descriptors() const;

  // The first local-store tier's VerdictStore, or nullptr when the stack
  // has none — because none was configured, or because its open failed /
  // it was quarantined (store_status() then says why; the engine still
  // serves — a broken cache tier degrades to a cold one, it never takes the
  // service down with it).
  const VerdictStore* store() const;
  const Status& store_status() const { return store_status_; }

  // Drops volatile cache state only (the LRU tiers, a remote tier's
  // negative entries, Σ/chase caches); durable tiers keep their entries
  // (their contents are valid forever by construction — see
  // engine/store.h).
  void ClearCaches();

  // Migrates every verdict tier from `old_deps` to `new_deps` in one pass:
  // computes the per-dependency delta, drops the Σ-analysis and chase-prefix
  // caches (their entries embed the old Σ), and drives the delta through
  // the tier stack — surviving entries are re-keyed in place (exact or
  // monotone per engine/lineage.h), touched entries are dropped, the local
  // store compacts, and a remote peer migrates its authority map too.
  // O(entries touched) work instead of the O(everything) cold start that
  // re-keying the whole cache used to mean. Call between decision bursts:
  // concurrent in-flight checks under the *old* Σ may race the migration
  // and simply publish old-keyed (unreachable, never wrong) entries.
  DeltaReceipt EvolveSigma(const DependencySet& old_deps,
                           const DependencySet& new_deps);

 private:
  // Everything the engine derives from Σ alone, computed once per distinct
  // canonical Σ key (when the key first misses the Σ cache) and immutable
  // afterwards, so it is shared across threads without a lock: the
  // classification, the whole-Σ fingerprint every published verdict is
  // tagged with, and the compiled chase plan (chase/plan.h) — which owns
  // one stable copy of Σ — that every chase of this Σ runs on. Σs that
  // differ only in insertion order share one record; the plan's Σ keeps the
  // order of whichever of them built it (see SharedChase).
  struct SigmaRecord {
    SigmaAnalysis analysis;
    uint64_t fingerprint = 0;  // SigmaFingerprint (analysis/delta.h)
    std::shared_ptr<const ChasePlan> plan;
  };

  // A shared, resumable chase prefix. The engine hands out shared_ptrs: the
  // LRU map holds one reference and every in-flight asker holds another, so
  // eviction under load never destroys a chase mid-use — the last asker
  // does. `mu` serializes extension (a Chase is not internally thread-safe);
  // concurrent askers of the same exact (Q, Σ, variant) queue here and each
  // resumes the single shared prefix where the previous one left it. The
  // chase runs on its Σ record's plan (shared, so it and its Σ outlive both
  // the record's cache entry and any caller's DependencySet). The plan's Σ
  // may list the dependencies in another order than a later asker's Σ with
  // the same canonical key: the chase's used-dependency bitmaps and IND
  // labels index chase->deps(), so lineage is fingerprinted against it and
  // certificate steps are re-indexed to the asker's Σ. Each asker attaches
  // its own ChaseControl for its turn and detaches before unlocking, so one
  // asker's deadline or cancellation never aborts another's.
  struct SharedChase {
    std::mutex mu;  // guards everything below
    bool built = false;
    Status init_status;
    std::unique_ptr<Chase> chase;
  };

  // Per-execution context threaded through the decision path: the request's
  // policy, the cooperative control (null for uncontrolled synchronous
  // calls), the certificate out-slot (null unless want_certificate), and
  // whether the chase prefix may be cached (`false` for Minimize /
  // IsNonMinimal one-shot probes whose exact keys never repeat — they still
  // use the verdict cache but would otherwise pin dead chases).
  // Used-dependency lineage harvested from a decision's own chase, filled by
  // DecideByChase when the ExecContext asks (cacheable tasks only — this is
  // what ToStoredVerdict persists so a schema delta can later prove the
  // entry untouched). Chase-free strategies leave known = false: their
  // verdicts survive deltas monotonically, never exactly.
  struct LineageCapture {
    bool known = false;
    std::vector<uint64_t> used_fps;  // sorted per-dependency fingerprints
  };

  struct ExecContext {
    const RequestOptions* options = nullptr;  // never null
    ChaseControl* control = nullptr;
    std::optional<ContainmentCertificate>* cert_out = nullptr;
    LineageCapture* lineage = nullptr;
    bool cache_chase_prefix = true;
    // The request's Σ rendered once (CanonicalSigmaKey) and its record;
    // both null when the engine keeps no caches for this request (cache
    // off, or a foreign catalog).
    const std::string* sigma_key = nullptr;
    const SigmaRecord* sigma = nullptr;
  };

  // The one decision path everything funnels into: validate, classify,
  // consult the verdict cache (unless a certificate is wanted — a cached
  // verdict has no derivation to extract), decide, extract the certificate,
  // fill the cache.
  Result<EngineOutcome> Execute(const ConjunctiveQuery& q,
                                const ConjunctiveQuery& q_prime,
                                const DependencySet& deps,
                                const RequestOptions& options,
                                ChaseControl* control,
                                bool cache_chase_prefix);

  // Uncached dispatch: classify, route, execute.
  Result<EngineVerdict> DecideUncached(const ConjunctiveQuery& q,
                                       const ConjunctiveQuery& q_prime,
                                       const DependencySet& deps,
                                       const SigmaAnalysis& analysis,
                                       const ExecContext& ctx);

  // The Theorem 1/2 iterative-deepening decision loop, run on a fresh,
  // shared-from-cache, or local chase of Q. Polls ctx.control between
  // levels (and the chase polls it between steps); extracts ctx.cert_out
  // from the live chase on a contained verdict.
  Result<ContainmentReport> DecideByChase(const ConjunctiveQuery& q,
                                          const ConjunctiveQuery& q_prime,
                                          const DependencySet& deps,
                                          const SigmaAnalysis& analysis,
                                          const ExecContext& ctx);

  // The record for Σ, whose canonical key the caller rendered: the cached
  // one, or a fresh one inserted unless a racing asker inserted first.
  std::shared_ptr<const SigmaRecord> SigmaRecordFor(
      const DependencySet& deps, const std::string& sigma_key);

  // Check()'s body, minus the public-entry stats increment.
  Result<EngineVerdict> CheckCounted(const ConjunctiveQuery& q,
                                     const ConjunctiveQuery& q_prime,
                                     const DependencySet& deps,
                                     bool cache_chase_prefix);

  // Write-behind: schedules one tier-stack flush on the executor unless one
  // is already queued. The decision path buffers into the tiers' in-memory
  // pending state and returns; the disk/network write happens on a pool
  // worker.
  void ScheduleTierFlush();

  // The canonical tier key for a task this engine may serve from its tiers,
  // or "" when the task is not cacheable here (foreign catalog or symbol
  // table — the same conditions Execute applies before probing). A burst
  // renders each distinct Σ (by address) once, into `sigma_keys`.
  using SigmaKeysByAddress =
      std::unordered_map<const DependencySet*, std::string>;
  std::string TierKeyForPrefetch(const ConjunctiveQuery& q,
                                 const ConjunctiveQuery& q_prime,
                                 const DependencySet& deps,
                                 SigmaKeysByAddress* sigma_keys) const;

  const Catalog* catalog_;
  SymbolTable* symbols_;
  EngineConfig config_;

  // Monotone counters are atomics so the chase hot path never takes mu_ for
  // bookkeeping; stats() assembles a relaxed snapshot.
  struct AtomicStats {
    std::atomic<uint64_t> checks{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> cache_misses{0};
    std::atomic<uint64_t> chase_prefix_reuses{0};
    std::atomic<uint64_t> chases_built{0};
    // store/remote hit+write counts live in the tiers themselves
    // (tier_stats()); stats() derives the EngineStats rollups from there.
    std::atomic<uint64_t> entries_retagged{0};
    std::atomic<uint64_t> entries_dropped{0};
    std::atomic<uint64_t> monotone_hits{0};
    std::atomic<uint64_t> submits{0};
    std::atomic<uint64_t> deadline_expirations{0};
    std::atomic<uint64_t> cancellations{0};
    std::atomic<uint64_t> certificates_built{0};
    std::atomic<uint64_t> chase_steps{0};
    std::atomic<uint64_t> chase_index_rebuilds{0};
    std::atomic<uint64_t> segments_built{0};
    std::atomic<uint64_t> bulk_ind_applications{0};
    std::atomic<uint64_t> inds_pruned{0};
    std::atomic<uint64_t> witness_searches{0};
    std::atomic<uint64_t> witness_searches_skipped{0};
    std::atomic<uint64_t> canonical_fallbacks{0};
    std::array<std::atomic<uint64_t>, kNumStrategies> by_strategy{};
  };
  AtomicStats stats_;

  mutable std::mutex mu_;  // guards the two caches below (the verdict tiers
                           // synchronize themselves)
  using SigmaCache = LruCache<std::shared_ptr<const SigmaRecord>>;
  SigmaCache sigma_cache_;
  using ChaseCache = LruCache<std::shared_ptr<SharedChase>>;
  ChaseCache chase_cache_;

  // Outstanding request states, so destruction can cancel them all — the
  // futures may have been dropped, and without this a no-deadline
  // semi-decision would stall the destructor's drain forever. Weak: a
  // resolved request's state dies with its task + futures; Submit prunes
  // expired entries as it registers new ones.
  std::mutex inflight_mu_;
  std::vector<std::weak_ptr<internal::FutureState<EngineOutcome>>> inflight_;

  // The verdict tier stack. Declared above executor_ deliberately: the
  // executor is destroyed first and drains any queued write-behind flush
  // task while the tiers are still alive; each tier's own destructor then
  // does its final flush (+ compaction for the local store).
  std::unique_ptr<TierStack> tiers_;
  Status store_status_;  // why the stack (or its store tier) is degraded
  std::atomic<bool> tier_flush_scheduled_{false};

  // Last member: destroyed first, so queued tasks drain while the caches,
  // stats, store and symbol table above are still alive.
  Executor executor_;
};

}  // namespace cqchase

#endif  // CQCHASE_ENGINE_ENGINE_H_
