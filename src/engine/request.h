// The engine's asynchronous request/future surface.
//
//   ContainmentRequest  — one containment question as an owned value: the
//                         queries and Σ travel inside the request (shared
//                         ownership), so a submitted request can never
//                         dangle after the caller's scope exits.
//   RequestOptions      — per-request policy: deadline, want_certificate,
//                         semi-decision override.
//   EngineOutcome       — what a request resolves to: the verdict (the old
//                         EngineVerdict, which it subsumes) plus, when
//                         requested and containment holds, a Theorem 2
//                         certificate extracted from the *same* chase the
//                         decision ran.
//   EngineFuture<T>     — the caller's handle: Wait/WaitFor/Get plus
//                         cooperative Cancel() wired to the ChaseControl
//                         the executing chase polls.
//
// Submission itself is ContainmentEngine::Submit (engine/engine.h); this
// header is value types only and carries no engine dependency.
#ifndef CQCHASE_ENGINE_REQUEST_H_
#define CQCHASE_ENGINE_REQUEST_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "base/status.h"
#include "chase/control.h"
#include "core/certificate.h"
#include "core/containment.h"
#include "cq/query.h"
#include "deps/dependency_set.h"
#include "engine/sigma_class.h"

namespace cqchase {

// Per-request policy knobs. Everything not set here falls back to the
// engine's EngineConfig defaults.
struct RequestOptions {
  // Absolute deadline. A request that cannot decide before it resolves to
  // kDeadlineExceeded — "unknown", never a wrong answer — checked on entry,
  // between chase deepening levels, and every few chase steps.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  // Relative convenience form; resolved against steady_clock::now() at
  // Submit time. Ignored when `deadline` is set.
  std::optional<std::chrono::milliseconds> timeout;

  // Decide containment AND extract a Theorem 2 proof object from the same
  // chase (EngineOutcome::certificate). Requires a certifiable Σ (empty,
  // FD-only, IND-only or key-based — Lemma 2's cases); otherwise the
  // request resolves to kUnimplemented. BuildCertificate (core/certificate.h)
  // is one such request on a throwaway engine. Verdict-cache hits are
  // bypassed for such requests: a cached verdict carries no derivation to
  // extract from.
  bool want_certificate = false;

  // Overrides EngineConfig::containment.allow_semidecision for this request
  // alone (run a sound semi-decision on general FD+IND Σ — typically paired
  // with a deadline, since the semi-decision may not terminate within any
  // useful budget).
  std::optional<bool> allow_semidecision;
};

// One containment question Σ ⊨ Q ⊆∞ Q' as a self-contained value. The
// request holds shared ownership of its queries and Σ; the referenced
// Catalog and SymbolTable must still outlive the engine, as always.
struct ContainmentRequest {
  std::shared_ptr<const ConjunctiveQuery> q;
  std::shared_ptr<const ConjunctiveQuery> q_prime;
  std::shared_ptr<const DependencySet> deps;
  RequestOptions options;

  // Copies (or moves) the inputs into the request: the safe default — the
  // caller's originals may die the moment this returns.
  static ContainmentRequest Own(ConjunctiveQuery q, ConjunctiveQuery q_prime,
                                DependencySet deps,
                                RequestOptions options = {}) {
    ContainmentRequest r;
    r.q = std::make_shared<const ConjunctiveQuery>(std::move(q));
    r.q_prime = std::make_shared<const ConjunctiveQuery>(std::move(q_prime));
    r.deps = std::make_shared<const DependencySet>(std::move(deps));
    r.options = std::move(options);
    return r;
  }

  // Shares already-shared inputs; zero copies, still lifetime-safe.
  static ContainmentRequest Share(
      std::shared_ptr<const ConjunctiveQuery> q,
      std::shared_ptr<const ConjunctiveQuery> q_prime,
      std::shared_ptr<const DependencySet> deps, RequestOptions options = {}) {
    ContainmentRequest r;
    r.q = std::move(q);
    r.q_prime = std::move(q_prime);
    r.deps = std::move(deps);
    r.options = std::move(options);
    return r;
  }

  // Non-owning aliases (no-op deleter): the caller guarantees the inputs
  // outlive the returned future's completion — e.g. a caller that Gets
  // every future of a SubmitAll burst before its locals go out of scope.
  static ContainmentRequest Borrow(const ConjunctiveQuery& q,
                                   const ConjunctiveQuery& q_prime,
                                   const DependencySet& deps,
                                   RequestOptions options = {}) {
    ContainmentRequest r;
    r.q = std::shared_ptr<const ConjunctiveQuery>(
        std::shared_ptr<const ConjunctiveQuery>(), &q);
    r.q_prime = std::shared_ptr<const ConjunctiveQuery>(
        std::shared_ptr<const ConjunctiveQuery>(), &q_prime);
    r.deps = std::shared_ptr<const DependencySet>(
        std::shared_ptr<const DependencySet>(), &deps);
    r.options = std::move(options);
    return r;
  }
};

// A containment answer plus how the engine got it.
struct EngineVerdict {
  ContainmentReport report;
  SigmaClass sigma_class = SigmaClass::kEmpty;
  DecisionStrategy strategy = DecisionStrategy::kHomomorphism;
  bool cache_hit = false;
  // Which non-LRU tier of the verdict stack answered, if any: the in-memory
  // tier missed, the named tier hit, and no chase was built. cache_hit is
  // also true then — the question was answered from cache, just a deeper
  // one (the persistent store / a remote verdict authority).
  bool store_hit = false;
  bool remote_hit = false;
};

// What a submitted request resolves to. Subsumes EngineVerdict; the
// certificate is engaged exactly when options.want_certificate was set and
// the verdict is "contained" (it then verifies against (Q, Q', Σ) via
// VerifyCertificate, and was extracted from the decision's own chase — no
// re-chase).
struct EngineOutcome {
  EngineVerdict verdict;
  std::optional<ContainmentCertificate> certificate;
};

namespace internal {

// Shared between an EngineFuture and the executor task computing its value.
// The control half is written by the future (Cancel) and polled by the
// task's chase; the result half is written once by the task and read by the
// future under mu.
template <typename T>
struct FutureState {
  ChaseControl control;

  std::mutex mu;
  std::condition_variable cv;
  std::optional<Result<T>> result;
  bool consumed = false;

  void Set(Result<T> r) {
    {
      std::lock_guard<std::mutex> lock(mu);
      result.emplace(std::move(r));
    }
    cv.notify_all();
  }
};

}  // namespace internal

// Handle to an in-flight engine request. Copyable (all copies view the one
// request); Get() consumes the result and may be called once across all
// copies. Destroying every future does NOT cancel the request — it runs to
// completion on the executor (call Cancel() for that); the engine keeps the
// shared state alive until then, so dropping futures is always safe.
// Engine destruction is the exception: it cancels every outstanding
// request (futures still held resolve kCancelled) so teardown never waits
// on abandoned work.
template <typename T>
class EngineFuture {
 public:
  EngineFuture() = default;
  explicit EngineFuture(std::shared_ptr<internal::FutureState<T>> state)
      : state_(std::move(state)) {}

  // A future that is already resolved to `result`: how the engine hands
  // back a request it answered on the submitting thread.
  static EngineFuture Ready(Result<T> result) {
    auto state = std::make_shared<internal::FutureState<T>>();
    state->result.emplace(std::move(result));
    return EngineFuture(std::move(state));
  }

  bool valid() const { return state_ != nullptr; }

  bool done() const {
    if (!valid()) return false;
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->result.has_value() || state_->consumed;
  }

  void Wait() const {
    if (!valid()) return;
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] {
      return state_->result.has_value() || state_->consumed;
    });
  }

  // True when the result arrived within `timeout`.
  bool WaitFor(std::chrono::milliseconds timeout) const {
    if (!valid()) return false;
    std::unique_lock<std::mutex> lock(state_->mu);
    return state_->cv.wait_for(lock, timeout, [&] {
      return state_->result.has_value() || state_->consumed;
    });
  }

  // Blocks until the result is ready and moves it out.
  Result<T> Get() {
    if (!valid()) {
      return Status::FailedPrecondition("Get() on a default-constructed "
                                        "EngineFuture");
    }
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] {
      return state_->result.has_value() || state_->consumed;
    });
    if (state_->consumed) {
      return Status::FailedPrecondition("EngineFuture result already "
                                        "consumed");
    }
    Result<T> out = std::move(*state_->result);
    state_->result.reset();
    state_->consumed = true;
    return out;
  }

  // Requests cooperative cancellation. The executing chase stops at its
  // next control poll and the future resolves to kCancelled; the chase dies
  // with its decision, handing back its NDV blocks. A request whose result
  // already landed (including one answered before Submit returned) is
  // unaffected. Idempotent.
  void Cancel() {
    if (!valid()) return;
    state_->control.cancel.store(true, std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<internal::FutureState<T>> state_;
};

}  // namespace cqchase

#endif  // CQCHASE_ENGINE_REQUEST_H_
