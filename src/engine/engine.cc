#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>

#include "analysis/delta.h"
#include "base/string_util.h"
#include "core/homomorphism.h"
#include "core/pspace.h"
#include "engine/lineage.h"

namespace cqchase {

namespace {
// Relaxed ordering everywhere: the counters are monotone telemetry with no
// ordering obligations to other memory.
inline void Bump(std::atomic<uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

inline void BumpBy(std::atomic<uint64_t>& counter, uint64_t n) {
  if (n != 0) counter.fetch_add(n, std::memory_order_relaxed);
}

// Width of the shared executor: the explicit knob wins; otherwise whatever
// the hardware offers.
size_t ExecutorWidth(const EngineConfig& config) {
  if (config.executor_threads > 0) return config.executor_threads;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

// Distinct canonical Σs whose records (analysis, fingerprint, compiled chase
// plan) the engine keeps, least-recently-used first out.
constexpr size_t kSigmaCacheCapacity = 1 << 12;

// Re-labels a certificate's derivation steps from the IND order of the Σ the
// chase ran on to the asker's Σ, which holds the same dependencies (equal
// canonical keys) possibly in another order: DerivationStep::ind_index
// indexes the Σ the certificate is verified against.
void RelabelStepsForAsker(const DependencySet& chase_deps,
                          const DependencySet& asker_deps,
                          ContainmentCertificate* cert) {
  const std::vector<InclusionDependency>& from = chase_deps.inds();
  const std::vector<InclusionDependency>& to = asker_deps.inds();
  for (DerivationStep& step : cert->steps) {
    const InclusionDependency& ind = from[step.ind_index];
    if (step.ind_index < to.size() && to[step.ind_index] == ind) continue;
    step.ind_index = static_cast<uint32_t>(
        std::find(to.begin(), to.end(), ind) - to.begin());
  }
}

// Q with conjunct `skip` removed.
ConjunctiveQuery WithoutConjunct(const ConjunctiveQuery& q, size_t skip) {
  ConjunctiveQuery out(&q.catalog(), &q.symbols());
  for (size_t i = 0; i < q.conjuncts().size(); ++i) {
    if (i != skip) out.AddConjunct(q.conjuncts()[i]);
  }
  out.SetSummary(q.summary());
  return out;
}

// The persisted form of a decided verdict: the cacheable report fields (the
// witness cannot survive the process), provenance, and — telemetry only —
// whether this computation also extracted a certificate.
StoredVerdict ToStoredVerdict(const EngineOutcome& outcome) {
  const ContainmentReport& report = outcome.verdict.report;
  StoredVerdict stored;
  stored.contained = report.contained;
  stored.chase_outcome = static_cast<uint8_t>(report.chase_outcome);
  stored.sigma_class = static_cast<uint8_t>(outcome.verdict.sigma_class);
  stored.strategy = static_cast<uint8_t>(outcome.verdict.strategy);
  stored.witness_max_level = report.witness_max_level;
  stored.chase_levels = report.chase_levels;
  stored.level_bound = report.level_bound;
  stored.chase_conjuncts = report.chase_conjuncts;
  stored.certified = outcome.certificate.has_value();
  stored.certificate_depth =
      outcome.certificate.has_value() ? report.witness_max_level : 0;
  return stored;
}

// Inverse of ToStoredVerdict. Enum bytes from untrusted sources were
// range-validated at decode time (serialize.cc), so the casts are safe
// here. The caller sets the cache_hit/store_hit/remote_hit provenance flags
// — this conversion serves every tier of the stack, including the LRU.
EngineVerdict FromStoredVerdict(const StoredVerdict& stored) {
  EngineVerdict verdict;
  verdict.report.contained = stored.contained;
  verdict.report.witness_max_level = stored.witness_max_level;
  verdict.report.level_bound = stored.level_bound;
  verdict.report.chase_conjuncts = stored.chase_conjuncts;
  verdict.report.chase_levels = stored.chase_levels;
  verdict.report.chase_outcome =
      static_cast<ChaseOutcome>(stored.chase_outcome);
  verdict.sigma_class = static_cast<SigmaClass>(stored.sigma_class);
  verdict.strategy = static_cast<DecisionStrategy>(stored.strategy);
  return verdict;
}

// A summary DV must keep occurring in the body; removing the only conjunct
// containing it would make the query unsafe.
bool RemovalKeepsSafety(const ConjunctiveQuery& q, size_t skip) {
  for (Term t : q.summary()) {
    if (!t.is_dist_var()) continue;
    bool still_occurs = false;
    for (size_t i = 0; i < q.conjuncts().size() && !still_occurs; ++i) {
      if (i == skip) continue;
      for (Term u : q.conjuncts()[i].terms) {
        if (u == t) {
          still_occurs = true;
          break;
        }
      }
    }
    if (!still_occurs) return false;
  }
  return true;
}

}  // namespace

ContainmentEngine::ContainmentEngine(const Catalog* catalog,
                                     SymbolTable* symbols, EngineConfig config)
    : catalog_(catalog),
      symbols_(symbols),
      config_(std::move(config)),
      sigma_cache_(kSigmaCacheCapacity),
      executor_(ExecutorWidth(config_)) {
  if (!config_.enable_cache) {
    if (!config_.tiers.empty()) {
      // The tier stack rides the memoization layer; with enable_cache off
      // no canonical keys are ever computed, so an assembled stack would
      // sit dead (never probed, never written) while silently looking
      // healthy. Refuse loudly instead.
      store_status_ = Status::FailedPrecondition(
          "tiers require enable_cache: the verdict tiers serve "
          "the canonical-key lookups that enable_cache = false turns off");
    }
    return;
  }
  std::vector<TierSpec> specs = config_.tiers;
  if (specs.empty()) {  // the classic single in-memory LRU
    specs.push_back(TierSpec::Lru(config_.verdict_cache_capacity));
  }
  tiers_ = TierStack::Assemble(specs);
  // A local-store tier that was quarantined (open failure, fingerprint
  // drift) reports its reason through store_status().
  for (const TierStack::TierDescriptor& desc : tiers_->descriptors()) {
    if (desc.kind == TierSpec::Kind::kLocalStore && !desc.active) {
      store_status_ = desc.status;
      break;
    }
  }
}

ContainmentEngine::~ContainmentEngine() {
  // Cancel everything still in flight before the executor member's
  // destructor drains the queue: an abandoned no-deadline request (e.g. a
  // divergent semi-decision whose future was dropped) would otherwise run
  // forever and hang teardown. Cancelled tasks stop at their next control
  // poll and resolve kCancelled.
  std::lock_guard<std::mutex> lock(inflight_mu_);
  for (std::weak_ptr<internal::FutureState<EngineOutcome>>& weak : inflight_) {
    if (std::shared_ptr<internal::FutureState<EngineOutcome>> state =
            weak.lock()) {
      state->control.cancel.store(true, std::memory_order_relaxed);
    }
  }
}

SigmaAnalysis ContainmentEngine::Analyze(const DependencySet& deps) {
  // Stateless engines (the compatibility wrappers) skip the keyed cache:
  // the classification predicates are cheaper than building the key.
  if (!config_.enable_cache) return AnalyzeSigma(deps, *catalog_);
  return SigmaRecordFor(deps, CanonicalSigmaKey(deps))->analysis;
}

std::shared_ptr<const ContainmentEngine::SigmaRecord>
ContainmentEngine::SigmaRecordFor(const DependencySet& deps,
                                  const std::string& sigma_key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const std::shared_ptr<const SigmaRecord>* hit =
            sigma_cache_.Get(sigma_key)) {
      return *hit;
    }
  }
  auto record = std::make_shared<SigmaRecord>();
  record->analysis = AnalyzeSigma(deps, *catalog_);
  record->fingerprint = SigmaFingerprint(deps);
  record->plan = std::make_shared<const ChasePlan>(
      catalog_, std::make_shared<const DependencySet>(deps));
  SigmaCache::Entries evicted;  // destroyed after unlocking
  std::lock_guard<std::mutex> lock(mu_);
  // A racing asker of the same Σ may have inserted first: keep its record,
  // so every chase of one canonical Σ runs on a single copy.
  if (const std::shared_ptr<const SigmaRecord>* hit =
          sigma_cache_.Get(sigma_key)) {
    return *hit;
  }
  evicted = sigma_cache_.Put(sigma_key, record);
  return record;
}

std::optional<DecisionStrategy> ContainmentEngine::RouteOf(
    const ConjunctiveQuery& q_prime, const DependencySet& deps) {
  return ChooseStrategy(Analyze(deps), q_prime,
                        config_.containment.allow_semidecision,
                        config_.route_streaming_single_conjunct);
}

// --- Async API --------------------------------------------------------------

EngineFuture<EngineOutcome> ContainmentEngine::Submit(
    ContainmentRequest request) {
  Admission admission = Admit(std::move(request));
  AnswerLocally(admission);
  return Dispatch(std::move(admission));
}

std::vector<EngineFuture<EngineOutcome>> ContainmentEngine::SubmitAll(
    std::vector<ContainmentRequest> requests) {
  std::vector<Admission> admissions;
  admissions.reserve(requests.size());
  for (ContainmentRequest& r : requests) {
    admissions.push_back(Admit(std::move(r)));
  }
  // Warm the tier stack for the whole burst before probing it: one batched
  // round trip per network tier instead of one RTT per worker-side Lookup,
  // and its hits are promoted into the local tiers, so they resolve below.
  // Certificate requests skip tier reads entirely, so their keys stay out.
  if (admissions.size() > 1 && tiers_ != nullptr) {
    std::vector<std::string> keys;
    for (const Admission& a : admissions) {
      if (!a.answer.has_value() && a.prepared.cacheable &&
          !a.request.options.want_certificate) {
        keys.push_back(a.prepared.key);
      }
    }
    if (!keys.empty() && tiers_->Prefetch(keys).buffered_writes) {
      ScheduleTierFlush();
    }
  }
  // Every request is probed before any is enqueued, so no burst member
  // races a sibling's publish: which requests queue depends on the tiers'
  // state before the burst alone.
  for (Admission& a : admissions) AnswerLocally(a);
  std::vector<EngineFuture<EngineOutcome>> futures;
  futures.reserve(admissions.size());
  for (Admission& a : admissions) futures.push_back(Dispatch(std::move(a)));
  return futures;
}

ContainmentEngine::Admission ContainmentEngine::Admit(
    ContainmentRequest request) {
  Bump(stats_.submits);
  Admission admission;
  admission.request = std::move(request);
  const ContainmentRequest& r = admission.request;
  // Resolve the relative form once, at submission — queue time counts
  // against the deadline, exactly like a network request's.
  if (r.options.deadline.has_value()) {
    admission.deadline = r.options.deadline;
  } else if (r.options.timeout.has_value()) {
    admission.deadline = std::chrono::steady_clock::now() + *r.options.timeout;
  }
  if (r.q == nullptr || r.q_prime == nullptr || r.deps == nullptr) {
    admission.answer.emplace(Status::InvalidArgument(
        "ContainmentRequest has a null query or dependency set"));
    return admission;
  }
  Bump(stats_.checks);
  ChaseControl control;
  control.deadline = admission.deadline;
  Status prepared = Prepare(*r.q, *r.q_prime, *r.deps, r.options, &control,
                            &admission.prepared);
  if (!prepared.ok()) {
    if (prepared.code() == StatusCode::kDeadlineExceeded) {
      Bump(stats_.deadline_expirations);
    }
    admission.answer.emplace(std::move(prepared));
  }
  return admission;
}

void ContainmentEngine::AnswerLocally(Admission& admission) {
  if (admission.answer.has_value()) return;
  if (std::optional<EngineOutcome> hit = ProbeLocalTiers(
          admission.prepared, admission.request.options)) {
    admission.answer.emplace(*std::move(hit));
  }
}

EngineFuture<EngineOutcome> ContainmentEngine::Dispatch(Admission admission) {
  if (admission.answer.has_value()) {
    return EngineFuture<EngineOutcome>::Ready(*std::move(admission.answer));
  }
  auto state = std::make_shared<internal::FutureState<EngineOutcome>>();
  state->control.deadline = admission.deadline;
  {
    // Register for cancel-on-destruction; prune resolved (expired) entries
    // opportunistically so the registry tracks live requests, not history.
    std::lock_guard<std::mutex> lock(inflight_mu_);
    if (inflight_.size() >= 64) {
      inflight_.erase(
          std::remove_if(
              inflight_.begin(), inflight_.end(),
              [](const std::weak_ptr<internal::FutureState<EngineOutcome>>&
                     weak) { return weak.expired(); }),
          inflight_.end());
    }
    inflight_.push_back(state);
  }
  Executor::TaskOptions task_options;
  // Shed-at-dequeue: a request whose whole budget elapsed in the queue is
  // completed kDeadlineExceeded by the executor itself instead of occupying
  // a worker slot to discover the same thing at Finish's first control
  // poll (under overload, expired backlog must not starve live requests).
  task_options.deadline = admission.deadline;
  task_options.on_expired = [this, state] {
    Bump(stats_.deadline_expirations);
    state->Set(Status::DeadlineExceeded(
        "request deadline exceeded while queued (shed at dequeue)"));
  };
  auto queued = std::make_shared<const Admission>(std::move(admission));
  executor_.Submit(
      [this, state, queued] {
        const ContainmentRequest& r = queued->request;
        Result<EngineOutcome> result =
            Finish(*r.q, *r.q_prime, *r.deps, r.options, &state->control,
                   queued->prepared);
        if (!result.ok()) {
          if (result.status().code() == StatusCode::kDeadlineExceeded) {
            Bump(stats_.deadline_expirations);
          } else if (result.status().code() == StatusCode::kCancelled) {
            Bump(stats_.cancellations);
          }
        }
        state->Set(std::move(result));
      },
      std::move(task_options));
  return EngineFuture<EngineOutcome>(std::move(state));
}

// --- Synchronous API --------------------------------------------------------

Result<EngineVerdict> ContainmentEngine::Check(const ConjunctiveQuery& q,
                                               const ConjunctiveQuery& q_prime,
                                               const DependencySet& deps) {
  // Minimize/IsNonMinimal probes route through here too, so every cache
  // hit/miss they record belongs to a counted check (hit rates over stats()
  // stay <= 100%).
  Bump(stats_.checks);
  const RequestOptions defaults;
  PreparedRequest prepared;
  CQCHASE_RETURN_IF_ERROR(
      Prepare(q, q_prime, deps, defaults, /*control=*/nullptr, &prepared));
  if (std::optional<EngineOutcome> hit = ProbeLocalTiers(prepared, defaults)) {
    return std::move(hit->verdict);
  }
  CQCHASE_ASSIGN_OR_RETURN(EngineOutcome outcome,
                           Finish(q, q_prime, deps, defaults,
                                  /*control=*/nullptr, prepared));
  return std::move(outcome.verdict);
}

// --- The three steps of a request --------------------------------------------

Status ContainmentEngine::Prepare(const ConjunctiveQuery& q,
                                  const ConjunctiveQuery& q_prime,
                                  const DependencySet& deps,
                                  const RequestOptions& options,
                                  const ChaseControl* control,
                                  PreparedRequest* prepared) {
  // A request whose budget is already spent resolves before any work.
  if (control != nullptr) CQCHASE_RETURN_IF_ERROR(control->Check());
  CQCHASE_RETURN_IF_ERROR(q.Validate());
  CQCHASE_RETURN_IF_ERROR(q_prime.Validate());
  if (q.summary().size() != q_prime.summary().size()) {
    return Status::InvalidArgument(
        "queries must have the same output arity for containment");
  }
  // A query from a foreign SymbolTable cannot be chased into this engine's
  // arena: fresh NDVs would reuse term ids the query already assigns to its
  // own variables, silently corrupting the decision. (The legacy free
  // functions always construct the engine on the caller's table, so only a
  // direct contract violation reaches this.)
  if (&q.symbols() != symbols_ || &q_prime.symbols() != symbols_) {
    return Status::InvalidArgument(
        "queries must be built against the engine's symbol table");
  }
  if (options.want_certificate && !CertifiableSigma(deps, q.catalog())) {
    return Status::Unimplemented(
        "certificates are only constructed for IND-only, FD-only or "
        "key-based dependency sets");
  }

  // Queries built against a foreign catalog would alias relation ids in the
  // cache keys; serve them uncached — and classify Σ against *their*
  // catalog, whose relation ids the dependencies refer to.
  const bool foreign_catalog = &q.catalog() != catalog_;
  if (!config_.enable_cache || foreign_catalog) {
    prepared->uncached_analysis = AnalyzeSigma(deps, q.catalog());
    return Status::OK();
  }
  // Σ is rendered once per request: the Σ-record lookup and the task key
  // both read this one string.
  const std::string sigma_key = CanonicalSigmaKey(deps);
  prepared->sigma = SigmaRecordFor(deps, sigma_key);
  prepared->cacheable = tiers_ != nullptr && &q_prime.catalog() == catalog_;
  if (prepared->cacheable) {
    uint64_t key_fallbacks = 0;
    prepared->key = CanonicalTaskKey(q, q_prime, sigma_key,
                                     config_.containment.variant,
                                     &key_fallbacks);
    BumpBy(stats_.canonical_fallbacks, key_fallbacks);
  }
  return Status::OK();
}

std::optional<EngineOutcome> ContainmentEngine::ProbeLocalTiers(
    const PreparedRequest& prepared, const RequestOptions& options) {
  // A certificate request skips the verdict-tier *reads*: a cached verdict
  // dropped its chase derivation, so there is nothing to extract a proof
  // from. It still publishes its verdict in Finish for later
  // certificate-free askers.
  if (!prepared.cacheable || options.want_certificate) return std::nullopt;
  std::optional<TierStack::LookupResult> hit =
      tiers_->Lookup(prepared.key, TierStack::Probe::kLocal);
  if (!hit.has_value()) return std::nullopt;
  return ServeHit(*hit);
}

EngineOutcome ContainmentEngine::ServeHit(const TierStack::LookupResult& hit) {
  EngineOutcome outcome;
  outcome.verdict = FromStoredVerdict(hit.verdict);
  outcome.verdict.cache_hit = true;
  // A monotone-bound survivor of a schema delta: its contained bit is
  // guaranteed under the current Σ (engine/lineage.h), so it answers a
  // plain check like any hit; the counter lets ops and differential suites
  // see how much of the traffic rides the weaker guarantee.
  if (hit.verdict.confidence ==
      static_cast<uint8_t>(VerdictConfidence::kMonotoneBound)) {
    Bump(stats_.monotone_hits);
  }
  switch (hit.kind) {
    case TierSpec::Kind::kLru:
      Bump(stats_.cache_hits);
      break;
    case TierSpec::Kind::kLocalStore:
      // The in-memory tier did miss before this tier answered; count that
      // miss so hit rates read the same as the pre-stack engine.
      Bump(stats_.cache_misses);
      outcome.verdict.store_hit = true;
      break;
    case TierSpec::Kind::kRemote:
      Bump(stats_.cache_misses);
      outcome.verdict.remote_hit = true;
      break;
  }
  // A promotion into a durable tier buffered bytes; make them move.
  if (hit.buffered_writes) ScheduleTierFlush();
  return outcome;
}

Result<EngineOutcome> ContainmentEngine::Finish(
    const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
    const DependencySet& deps, const RequestOptions& options,
    ChaseControl* control, const PreparedRequest& prepared) {
  // A request that spent its whole budget in the queue (or was cancelled
  // there) resolves without touching a tier or a chase.
  if (control != nullptr) CQCHASE_RETURN_IF_ERROR(control->Check());

  ExecContext ctx;
  ctx.options = &options;
  ctx.control = control;
  ctx.sigma = prepared.sigma.get();
  EngineOutcome outcome;
  if (options.want_certificate) ctx.cert_out = &outcome.certificate;
  const SigmaAnalysis& analysis = prepared.analysis();

  if (!prepared.cacheable) {
    CQCHASE_ASSIGN_OR_RETURN(outcome.verdict,
                             DecideUncached(q, q_prime, deps, analysis, ctx));
    return outcome;
  }
  // Cacheable decisions harvest their chase's used-dependency set so the
  // published entry carries lineage a future schema delta can consult.
  LineageCapture lineage;
  ctx.lineage = &lineage;

  if (!options.want_certificate) {
    // The local tiers missed in step 2; a hit below them still bypasses the
    // chase, and the stack promotes it into every cheaper tier so the next
    // re-ask stops earlier.
    if (std::optional<TierStack::LookupResult> hit =
            tiers_->Lookup(prepared.key, TierStack::Probe::kRest)) {
      return ServeHit(*hit);
    }
    Bump(stats_.cache_misses);
  }

  CQCHASE_ASSIGN_OR_RETURN(outcome.verdict,
                           DecideUncached(q, q_prime, deps, analysis, ctx));

  // Fan the fresh verdict out to every tier. The in-memory
  // tier serves it immediately; durable/remote tiers buffer (each Publish
  // is insert-if-absent, so certificate re-decides of an already-stored
  // key append nothing) and the executor flush makes the bytes move —
  // write-behind, never on this decision path. The witness homomorphism
  // references this computation's chase facts and the asker's terms, so
  // only the verdict and its statistics travel (ToStoredVerdict drops it).
  StoredVerdict stored = ToStoredVerdict(outcome);
  // Fresh decisions are exact by construction (confidence default); tag the
  // entry with its Σ's fingerprint, and with the chase's used-dependency
  // lineage when one ran — a chase-free strategy publishes lineage-unknown
  // and can only ever survive a delta monotonically.
  stored.sigma_fp = prepared.sigma->fingerprint;
  if (lineage.known) {
    stored.lineage_known = true;
    stored.used_fps = std::move(lineage.used_fps);
  }
  TierStack::PublishReceipt receipt = tiers_->Publish(prepared.key, stored);
  if (receipt.buffered_writes) ScheduleTierFlush();
  return outcome;
}

void ContainmentEngine::ScheduleTierFlush() {
  // One flush task in the queue at a time. The task clears the flag
  // *before* flushing, so a publish that races past the clear schedules a
  // new task while one submitted earlier still covers everything before it.
  if (tier_flush_scheduled_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  executor_.Submit([this] {
    tier_flush_scheduled_.store(false, std::memory_order_release);
    // Failures requeue inside each tier and count in its flush_failures;
    // the engine keeps serving from memory either way.
    tiers_->Flush();
  });
}

Result<EngineVerdict> ContainmentEngine::DecideUncached(
    const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
    const DependencySet& deps, const SigmaAnalysis& analysis,
    const ExecContext& ctx) {
  const bool allow_semidecision = ctx.options->allow_semidecision.value_or(
      config_.containment.allow_semidecision);
  std::optional<DecisionStrategy> strategy =
      ChooseStrategy(analysis, q_prime, allow_semidecision,
                     config_.route_streaming_single_conjunct);
  if (!strategy.has_value()) {
    return Status::Unimplemented(
        "containment for general FD+IND sets is open (paper Section 5); set "
        "options.allow_semidecision for a sound semi-decision");
  }
  // The streaming frontier never rewrites Q's conjuncts, so an empty-marked
  // Q (contained in everything) must take the chase route, whose loop
  // handles kEmptyQuery.
  if (*strategy == DecisionStrategy::kStreamingFrontier && q.is_empty_query()) {
    strategy = DecisionStrategy::kIterativeDeepening;
  }
  // A certificate is extracted from a live chase derivation, so the
  // chase-free routes (bare homomorphism, streaming frontier) hand over to
  // the deepening loop — the same decision, now with a proof to show.
  if (ctx.cert_out != nullptr &&
      (*strategy == DecisionStrategy::kHomomorphism ||
       *strategy == DecisionStrategy::kStreamingFrontier)) {
    strategy = DecisionStrategy::kIterativeDeepening;
  }

  EngineVerdict verdict;
  verdict.sigma_class = analysis.sigma_class;
  verdict.strategy = *strategy;

  switch (*strategy) {
    case DecisionStrategy::kHomomorphism: {
      if (q.is_empty_query()) {
        // Empty Q is contained in any Q' of matching arity; run the shared
        // loop, whose empty-query arm reports it.
        CQCHASE_ASSIGN_OR_RETURN(
            verdict.report, DecideByChase(q, q_prime, deps, analysis, ctx));
        break;
      }
      // Granularity caveat: the single homomorphism search below is not
      // interruptible — a control trip is noticed here or not until it
      // returns. (Chase-routed strategies poll between steps and levels.)
      if (ctx.control != nullptr) {
        CQCHASE_RETURN_IF_ERROR(ctx.control->Check());
      }
      ContainmentReport report;
      report.chase_conjuncts = q.conjuncts().size();
      report.chase_levels = 0;
      report.chase_outcome = ChaseOutcome::kSaturated;
      if (!q_prime.is_empty_query()) {
        std::optional<Homomorphism> hom =
            FindHomomorphism(q_prime, q.conjuncts(), q.summary());
        if (hom.has_value()) {
          report.contained = true;
          report.witness = std::move(hom);
        }
      }
      verdict.report = std::move(report);
      break;
    }
    case DecisionStrategy::kStreamingFrontier: {
      // Same caveat as the homomorphism arm: the streaming run itself does
      // not poll; deadline/cancel trips land before it starts or after it
      // finishes (its own frontier budget bounds the run).
      if (ctx.control != nullptr) {
        CQCHASE_RETURN_IF_ERROR(ctx.control->Check());
      }
      StreamingContainmentOptions sopt;
      sopt.max_level = config_.containment.limits.max_level;
      // Deliberately wider than StreamingContainmentOptions' default
      // (max_conjuncts / 2): a direct pspace.h caller has no recourse when
      // the frontier blows, but the engine falls back to the deduplicating
      // chase below, so it can afford to let streaming use the full budget.
      sopt.max_frontier = config_.containment.limits.max_conjuncts;
      Result<StreamingContainmentReport> streamed =
          StreamingSingleConjunctContainment(q, q_prime, deps, *symbols_,
                                             sopt);
      if (!streamed.ok()) {
        if (streamed.status().code() != StatusCode::kResourceExhausted) {
          return streamed.status();
        }
        // The O-chase frontier grows without dedup and can exhaust its
        // budget on dense cyclic Σ that the deduplicating R-chase decides
        // easily — fall back rather than surface an avoidable error.
        verdict.strategy = DecisionStrategy::kIterativeDeepening;
        CQCHASE_ASSIGN_OR_RETURN(
            verdict.report, DecideByChase(q, q_prime, deps, analysis, ctx));
        break;
      }
      const StreamingContainmentReport& sr = *streamed;
      ContainmentReport report;
      report.contained = sr.contained;
      report.level_bound = Theorem2LevelBound(q_prime.conjuncts().size(),
                                              deps.size(),
                                              analysis.max_ind_width);
      report.chase_conjuncts = sr.conjuncts_streamed;
      report.chase_levels = sr.decided_at_level;
      report.chase_outcome = ChaseOutcome::kTruncated;
      verdict.report = std::move(report);
      break;
    }
    case DecisionStrategy::kFdChase:
    case DecisionStrategy::kIterativeDeepening:
    case DecisionStrategy::kSemiDecision: {
      CQCHASE_ASSIGN_OR_RETURN(verdict.report,
                               DecideByChase(q, q_prime, deps, analysis, ctx));
      break;
    }
  }

  Bump(stats_.by_strategy[static_cast<size_t>(verdict.strategy)]);
  return verdict;
}

Result<ContainmentReport> ContainmentEngine::DecideByChase(
    const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
    const DependencySet& deps, const SigmaAnalysis& analysis,
    const ExecContext& ctx) {
  const ContainmentOptions& options = config_.containment;

  // The chase lives and dies in this call. Symbol-table identity is
  // enforced when the request is prepared; a request with a Σ record chases
  // on the record's compiled plan and its copy of Σ, one without (cache
  // off, or a foreign catalog) on a private plan of the caller's Σ.
  std::optional<Chase> chase_slot;
  if (ctx.sigma != nullptr) {
    chase_slot.emplace(ctx.sigma->plan, symbols_, options.variant,
                       options.limits);
  } else {
    chase_slot.emplace(&q.catalog(), symbols_, &deps, options.variant,
                       options.limits);
  }
  Chase& chase = *chase_slot;
  CQCHASE_RETURN_IF_ERROR(chase.Init(q));
  Bump(stats_.chases_built);

  // The Σ the chase runs on, whose dependency order its used-dependency
  // bitmaps and IND labels index: under a Σ record the record's copy, which
  // may order Σ differently from this asker's `deps`.
  const DependencySet& chase_deps = chase.deps();
  // The chase polls the request's cancellation/deadline between steps; a
  // tripped control unwinds like a resource limit.
  chase.set_control(ctx.control);
  // The Theorem 1/2 decision loop (moved here from core/containment.cc):
  // expand the chase prefix level by level, searching for a homomorphism
  // after each expansion, stopping at a witness, saturation, the Lemma 5
  // bound, or a resource limit.
  Result<ContainmentReport> result = [&]() -> Result<ContainmentReport> {
    ContainmentReport report;
    report.level_bound = Theorem2LevelBound(
        q_prime.conjuncts().size(), deps.size(), analysis.max_ind_width);
    uint64_t bound = report.level_bound;
    const bool bound_is_complete = analysis.decidable;  // Lemma 5 applies
    if (analysis.sigma_class == SigmaClass::kAcyclicInd &&
        analysis.acyclic_ind_depth.has_value()) {
      // Lemma 5's completeness argument covers the paper's classes only;
      // for the acyclic-IND fragment the complete bound is the reliance
      // critical path (analysis/reliance.h): no conjunct can sit deeper
      // than the longest IND reliance chain, so a chase expanded to that
      // level holds every fact the chase will ever have. Usually far
      // tighter than Lemma 5's |Q'|·|Σ|·(W+1)^W as well.
      bound = *analysis.acyclic_ind_depth;
      report.level_bound = bound;
    }

    // The witness index persists across levels. Without an FD merge the
    // chase only appends conjuncts, each at a level no lower than any
    // already indexed (ExpandToLevel completes one level before the next),
    // so appending the conjuncts created since the last sync keeps the
    // index in AliveConjuncts()'s (level, id) order: every search sees the
    // fact vector a from-scratch copy would, and returns the same witness.
    // A merge may rewrite old facts and the summary row, kill conjuncts and
    // lower levels, so it forces a rebuild, as does anything else that
    // breaks the order or the alive count. The target holds conjunct ids
    // only; each search reads the facts in place through a FactTable of the
    // chase's current conjunct storage.
    HomomorphismTarget target;
    std::vector<uint32_t> fresh;  // conjunct ids to append, (level, id) order
    size_t synced_conjuncts = 0;  // chase.conjuncts().size() at the last sync
    uint64_t synced_merges = 0;
    // Target facts [0, witness_free) are known to admit no homomorphism
    // (a search over exactly them failed); 0 when nothing is known.
    size_t witness_free = 0;
    auto facts = [&]() {
      return FactTable(chase.conjuncts(), &ChaseConjunct::fact);
    };
    auto sync_target = [&]() {
      const std::vector<ChaseConjunct>& all = chase.conjuncts();
      auto reset = [&]() {
        target.Clear();
        synced_conjuncts = 0;
        witness_free = 0;
      };
      // The alive conjuncts created since the last sync, in (level, id)
      // order; from an empty target, exactly AliveConjuncts().
      auto collect = [&]() {
        fresh.clear();
        for (size_t i = synced_conjuncts; i < all.size(); ++i) {
          if (all[i].alive) fresh.push_back(static_cast<uint32_t>(i));
        }
        std::sort(fresh.begin(), fresh.end(), [&](uint32_t a, uint32_t b) {
          if (all[a].level != all[b].level) return all[a].level < all[b].level;
          return a < b;
        });
      };
      const uint64_t merges = chase.chase_stats().fd_merges;
      if (merges != synced_merges) reset();
      collect();
      if (target.size() + fresh.size() != chase.alive_count() ||
          (!fresh.empty() && target.size() != 0 &&
           all[fresh.front()].level < all[target.ids().back()].level)) {
        reset();
        collect();
      }
      const FactTable table = facts();
      for (const uint32_t id : fresh) target.Append(table, id);
      synced_conjuncts = all.size();
      synced_merges = merges;
    };

    // The prefix's size, for the report on every path that returns one.
    auto fill_prefix_size = [&]() {
      report.chase_conjuncts = chase.alive_count();
      report.chase_levels = chase.MaxAliveLevel();
    };

    // Searches the current alive prefix for a witness; on success fills the
    // report's witness fields and returns true. Shared by the per-level
    // searches and the budget-exhaustion last chance below. Semi-naive: when
    // the facts indexed before this sync are known witness-free, any
    // witness must use a fact added since, and HasHomomorphismTouching
    // looks only for those; the full search runs only when it finds one, so
    // the witness is still the full search's.
    auto search_witness = [&]() {
      if (q_prime.is_empty_query()) return false;
      sync_target();
      Bump(stats_.witness_searches);
      if (witness_free > 0 &&
          !HasHomomorphismTouching(q_prime, target, facts(), chase.summary(),
                                   witness_free)) {
        Bump(stats_.witness_searches_skipped);
        witness_free = target.size();
        return false;
      }
      std::optional<Homomorphism> hom =
          FindHomomorphism(q_prime, target, facts(), chase.summary());
      if (!hom.has_value()) {
        witness_free = target.size();
        return false;
      }
      fill_prefix_size();
      report.contained = true;
      // The levels of the chase facts the witness actually uses.
      report.witness_max_level = 0;
      for (size_t fi : hom->conjunct_images) {
        report.witness_max_level =
            std::max(report.witness_max_level,
                     chase.ConjunctById(target.ids()[fi])->level);
      }
      report.witness = std::move(hom);
      return true;
    };

    uint32_t level = 0;
    while (true) {
      // Level-boundary poll: the chase polls between steps, but a
      // homomorphism search over a large prefix can also run long — check
      // once per deepening iteration so neither side starves the control.
      if (ctx.control != nullptr) {
        CQCHASE_RETURN_IF_ERROR(ctx.control->Check());
      }
      Result<ChaseOutcome> expanded = chase.ExpandToLevel(level);
      if (!expanded.ok()) {
        // Budget tripped mid-expansion. A witness into the partial prefix is
        // still a witness (every chase fact is derived), and the facts the
        // tripped level did add may complete one, so search once before
        // surfacing the error. (Not for a cancelled request: its caller
        // asked us to stop, not to answer.)
        if (expanded.status().code() == StatusCode::kResourceExhausted &&
            search_witness()) {
          return report;
        }
        return expanded.status();
      }
      ChaseOutcome outcome = *expanded;
      report.chase_outcome = outcome;

      if (outcome == ChaseOutcome::kEmptyQuery) {
        // Q is unsatisfiable under Σ: Q(D) = ∅ for every Σ-database, so Q
        // is contained in any Q' of matching arity.
        fill_prefix_size();
        report.contained = true;
        return report;
      }

      if (search_witness()) return report;

      if (outcome == ChaseOutcome::kSaturated) {
        fill_prefix_size();
        report.contained = false;
        return report;
      }
      if (bound_is_complete && level >= bound) {
        // Lemma 5: any homomorphism could have been remapped into the
        // prefix of level <= bound; none exists there, so none at all.
        fill_prefix_size();
        report.contained = false;
        return report;
      }
      if (level >= options.limits.max_level) {
        return Status::ResourceExhausted(StrCat(
            "containment undecided at chase level ", level, " (bound ",
            bound, ", max_level ", options.limits.max_level, ")"));
      }
      uint32_t next = level + options.level_stride;
      level = std::min<uint64_t>(
          std::min<uint64_t>(next, options.limits.max_level),
          bound_is_complete ? std::max<uint64_t>(bound, 1) : next);
    }
  }();

  // Certificate extraction happens here, while the chase is still alive.
  // This is the "no re-chase" unification: the decision's own derivation
  // becomes the Theorem 2 proof object.
  if (ctx.cert_out != nullptr && result.ok() && result->contained) {
    if (chase.is_empty_query()) {
      ContainmentCertificate cert;
      cert.q_is_empty = true;
      *ctx.cert_out = std::move(cert);
    } else if (result->witness.has_value()) {
      ContainmentCertificate cert =
          ExtractCertificateFromChase(chase, *result->witness);
      RelabelStepsForAsker(chase_deps, deps, &cert);
      *ctx.cert_out = std::move(cert);
    }
    if (ctx.cert_out->has_value()) Bump(stats_.certificates_built);
  }

  // Harvest the decision's chase work into the engine counters.
  const ChaseStats& cs = chase.chase_stats();
  BumpBy(stats_.chase_steps, cs.steps);
  BumpBy(stats_.chase_index_rebuilds, cs.index_rebuilds);
  BumpBy(stats_.segments_built, cs.segments_built);
  BumpBy(stats_.bulk_ind_applications, cs.bulk_ind_applications);
  BumpBy(stats_.inds_pruned, cs.inds_pruned);

  // Lineage harvest: the dependencies this decision's chase used, as
  // structural fingerprints.
  if (ctx.lineage != nullptr && result.ok()) {
    ctx.lineage->known = true;
    ctx.lineage->used_fps =
        UsedDependencyFingerprints(chase_deps, chase.used_inds(),
                                   chase.used_fds());
  }
  return result;
}

Result<bool> ContainmentEngine::CheckEquivalence(
    const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
    const DependencySet& deps) {
  CQCHASE_ASSIGN_OR_RETURN(EngineVerdict forward, Check(q, q_prime, deps));
  if (!forward.report.contained) return false;
  CQCHASE_ASSIGN_OR_RETURN(EngineVerdict backward, Check(q_prime, q, deps));
  return backward.report.contained;
}

Result<bool> ContainmentEngine::IsNonMinimal(const ConjunctiveQuery& q,
                                             const DependencySet& deps) {
  if (q.is_empty_query() || q.conjuncts().empty()) return false;
  for (size_t i = 0; i < q.conjuncts().size(); ++i) {
    if (!RemovalKeepsSafety(q, i)) continue;
    ConjunctiveQuery candidate = WithoutConjunct(q, i);
    CQCHASE_ASSIGN_OR_RETURN(EngineVerdict v, Check(candidate, q, deps));
    if (v.report.contained) return true;
  }
  return false;
}

Result<MinimizeReport> ContainmentEngine::Minimize(const ConjunctiveQuery& q,
                                                   const DependencySet& deps) {
  MinimizeReport report{q, 0, 0};
  bool changed = true;
  while (changed && !report.query.conjuncts().empty()) {
    changed = false;
    for (size_t i = 0; i < report.query.conjuncts().size(); ++i) {
      if (!RemovalKeepsSafety(report.query, i)) continue;
      ConjunctiveQuery candidate = WithoutConjunct(report.query, i);
      ++report.containment_checks;
      CQCHASE_ASSIGN_OR_RETURN(EngineVerdict v,
                               Check(candidate, report.query, deps));
      if (v.report.contained) {
        report.query = std::move(candidate);
        ++report.removed_conjuncts;
        changed = true;
        break;
      }
    }
  }
  return report;
}

Result<ContainmentEngine::FdUnifyResult> ContainmentEngine::FdUnify(
    const ConjunctiveQuery& q, const DependencySet& deps) {
  if (&q.symbols() != symbols_) {
    return Status::InvalidArgument(
        "queries must be built against the engine's symbol table");
  }
  FdUnifyResult result{q, 0, false};
  if (deps.fds().empty()) return result;
  DependencySet fds = deps.FdsOnly();
  Chase chase(&q.catalog(), symbols_, &fds, ChaseVariant::kRequired,
              config_.containment.limits);
  CQCHASE_RETURN_IF_ERROR(chase.Init(q));
  CQCHASE_ASSIGN_OR_RETURN(ChaseOutcome outcome, chase.Run());
  BumpBy(stats_.chase_steps, chase.chase_stats().steps);
  if (outcome == ChaseOutcome::kEmptyQuery) {
    ConjunctiveQuery empty(&q.catalog(), &q.symbols());
    empty.SetSummary(q.summary());
    empty.MarkEmptyQuery();
    result.query = std::move(empty);
    result.proved_empty = true;
    return result;
  }
  const size_t before = q.Variables().size();
  result.query = chase.AsQuery();
  result.variables_unified = before - result.query.Variables().size();
  return result;
}

Result<std::optional<Instance>> ContainmentEngine::ExhaustiveCounterexample(
    const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
    const DependencySet& deps, const ExhaustiveSearchParams& params) {
  return ExhaustiveFiniteCounterexample(q, q_prime, deps, *symbols_, params);
}

Result<std::optional<Instance>> ContainmentEngine::RandomCounterexample(
    const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
    const DependencySet& deps, const RandomSearchParams& params) {
  return RandomFiniteCounterexample(q, q_prime, deps, *symbols_, params);
}

Result<std::optional<Instance>> ContainmentEngine::FiniteCounterexample(
    const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
    const DependencySet& deps, const FiniteWitnessParams& params) {
  return FiniteCounterexampleFromWitness(q, q_prime, deps, *symbols_, params);
}

EngineStats ContainmentEngine::stats() const {
  EngineStats out;
  out.checks = stats_.checks.load(std::memory_order_relaxed);
  out.cache_hits = stats_.cache_hits.load(std::memory_order_relaxed);
  out.cache_misses = stats_.cache_misses.load(std::memory_order_relaxed);
  out.chases_built = stats_.chases_built.load(std::memory_order_relaxed);
  // Store/remote rollups are sums over the stack's per-tier counters —
  // the tiers are the source of truth for what they served and accepted.
  if (tiers_ != nullptr) {
    const std::vector<VerdictTierStats> tier_rows = tiers_->Stats();
    size_t row = 0;
    for (const TierStack::TierDescriptor& desc : tiers_->descriptors()) {
      if (!desc.active) continue;
      const VerdictTierStats& tier = tier_rows[row++];
      if (desc.kind == TierSpec::Kind::kLocalStore) {
        out.store_hits += tier.hits;
        out.store_writes += tier.publishes;
      } else if (desc.kind == TierSpec::Kind::kRemote) {
        out.remote_hits += tier.hits;
        out.remote_writes += tier.publishes;
      }
    }
  }
  out.entries_retagged =
      stats_.entries_retagged.load(std::memory_order_relaxed);
  out.entries_dropped = stats_.entries_dropped.load(std::memory_order_relaxed);
  out.monotone_hits = stats_.monotone_hits.load(std::memory_order_relaxed);
  out.submits = stats_.submits.load(std::memory_order_relaxed);
  out.deadline_expirations =
      stats_.deadline_expirations.load(std::memory_order_relaxed);
  out.cancellations = stats_.cancellations.load(std::memory_order_relaxed);
  out.certificates_built =
      stats_.certificates_built.load(std::memory_order_relaxed);
  out.chase_steps = stats_.chase_steps.load(std::memory_order_relaxed);
  out.chase_index_rebuilds =
      stats_.chase_index_rebuilds.load(std::memory_order_relaxed);
  out.segments_built = stats_.segments_built.load(std::memory_order_relaxed);
  out.bulk_ind_applications =
      stats_.bulk_ind_applications.load(std::memory_order_relaxed);
  out.inds_pruned = stats_.inds_pruned.load(std::memory_order_relaxed);
  out.witness_searches =
      stats_.witness_searches.load(std::memory_order_relaxed);
  out.witness_searches_skipped =
      stats_.witness_searches_skipped.load(std::memory_order_relaxed);
  out.canonical_fallbacks =
      stats_.canonical_fallbacks.load(std::memory_order_relaxed);
  const Executor::StatsSnapshot exec = executor_.stats();
  out.executor_tasks = exec.executed;
  out.executor_steals = exec.steals;
  out.executor_queue_depth = exec.queue_depth;
  out.executor_workers = exec.workers;
  for (size_t i = 0; i < kNumStrategies; ++i) {
    out.by_strategy[i] = stats_.by_strategy[i].load(std::memory_order_relaxed);
  }
  return out;
}

ContainmentEngine::CacheSizes ContainmentEngine::cache_sizes() const {
  CacheSizes sizes;
  sizes.verdict_entries = tiers_ != nullptr ? tiers_->lru_entries() : 0;
  std::lock_guard<std::mutex> lock(mu_);
  sizes.sigma_entries = sigma_cache_.size();
  return sizes;
}

std::vector<VerdictTierStats> ContainmentEngine::tier_stats() const {
  if (tiers_ == nullptr) return {};
  return tiers_->Stats();
}

std::vector<TierStack::TierDescriptor> ContainmentEngine::tier_descriptors()
    const {
  if (tiers_ == nullptr) return {};
  return tiers_->descriptors();
}

const VerdictStore* ContainmentEngine::store() const {
  return tiers_ != nullptr ? tiers_->local_store() : nullptr;
}

void ContainmentEngine::ClearCaches() {
  if (tiers_ != nullptr) tiers_->Clear();
  std::lock_guard<std::mutex> lock(mu_);
  sigma_cache_.Clear();
}

DeltaReceipt ContainmentEngine::EvolveSigma(const DependencySet& old_deps,
                                            const DependencySet& new_deps) {
  DeltaReceipt receipt;
  const LineageDelta ld = MakeLineageDelta(old_deps, new_deps);
  if (ld.empty()) return receipt;
  {
    // The Σ-record cache embeds the old Σ. Its old-Σ entries are
    // unreachable under new-Σ keys anyway; clearing reclaims their plans
    // rather than letting them age out of the LRU.
    std::lock_guard<std::mutex> lock(mu_);
    sigma_cache_.Clear();
  }
  if (tiers_ != nullptr) receipt = tiers_->ApplyDelta(ld);
  BumpBy(stats_.entries_retagged, receipt.retagged());
  BumpBy(stats_.entries_dropped, receipt.dropped);
  return receipt;
}

}  // namespace cqchase
