// Blocking helpers over ContainmentEngine::Submit / SubmitAll for tests that
// ask a fixed set of questions and compare the answers. Requests borrow
// their inputs, so every helper waits for its futures before returning.
#ifndef CQCHASE_TESTS_SUBMIT_UTIL_H_
#define CQCHASE_TESTS_SUBMIT_UTIL_H_

#include <utility>
#include <vector>

#include "engine/engine.h"

namespace cqchase {

// One borrowed request per (lhs[i], rhs[i]) pair, all under `deps`.
inline std::vector<ContainmentRequest> BorrowAll(
    const std::vector<ConjunctiveQuery>& lhs,
    const std::vector<ConjunctiveQuery>& rhs, const DependencySet& deps) {
  std::vector<ContainmentRequest> requests;
  requests.reserve(lhs.size());
  for (size_t i = 0; i < lhs.size(); ++i) {
    requests.push_back(ContainmentRequest::Borrow(lhs[i], rhs[i], deps));
  }
  return requests;
}

// Submits `requests` as one SubmitAll burst and returns each request's
// verdict (or error), in request order.
inline std::vector<Result<EngineVerdict>> DecideAll(
    ContainmentEngine& engine, std::vector<ContainmentRequest> requests) {
  std::vector<Result<EngineVerdict>> verdicts;
  verdicts.reserve(requests.size());
  for (EngineFuture<EngineOutcome>& f : engine.SubmitAll(std::move(requests))) {
    Result<EngineOutcome> outcome = f.Get();
    if (outcome.ok()) {
      verdicts.push_back(std::move(outcome->verdict));
    } else {
      verdicts.push_back(outcome.status());
    }
  }
  return verdicts;
}

// Σ ⊨ Q ⊆ Q' with a Theorem 2 certificate wanted: the outcome carries one
// exactly when containment holds.
inline Result<EngineOutcome> DecideCertified(ContainmentEngine& engine,
                                             const ConjunctiveQuery& q,
                                             const ConjunctiveQuery& q_prime,
                                             const DependencySet& deps) {
  RequestOptions options;
  options.want_certificate = true;
  return engine.Submit(ContainmentRequest::Borrow(q, q_prime, deps, options))
      .Get();
}

}  // namespace cqchase

#endif  // CQCHASE_TESTS_SUBMIT_UTIL_H_
