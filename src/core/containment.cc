#include "core/containment.h"

#include <limits>
#include <optional>
#include <utility>

#include "core/certificate.h"
#include "engine/engine.h"

namespace cqchase {

uint64_t Theorem2LevelBound(size_t q_prime_size, size_t sigma_size,
                            size_t max_width) {
  if (sigma_size == 0) return 0;
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  // (W+1)^W with saturation.
  uint64_t pow = 1;
  for (size_t i = 0; i < max_width; ++i) {
    if (pow > kMax / (max_width + 1)) return kMax;
    pow *= (max_width + 1);
  }
  uint64_t out = static_cast<uint64_t>(q_prime_size);
  if (out != 0 && sigma_size > kMax / out) return kMax;
  out *= sigma_size;
  if (out != 0 && pow > kMax / out) return kMax;
  return out * pow;
}

// The decision procedure itself lives in engine/engine.cc
// (ContainmentEngine::DecideByChase and friends); these free functions —
// CheckContainment, CheckEquivalence and certificate.h's BuildCertificate —
// are the stateless compatibility surface. Each runs one throwaway engine
// with caching off and streaming routing off, which reproduces the
// historical behavior — including the witness homomorphism in the report —
// with one deliberate improvement: a run whose chase budget trips
// mid-expansion now searches the partial prefix for a witness before
// erroring, so some calls that used to return kResourceExhausted return a
// sound contained=true instead. Callers that issue many related checks
// should hold a ContainmentEngine instead and let its memoization work.

namespace {

EngineConfig ThrowawayEngineConfig(const ContainmentOptions& options) {
  EngineConfig config;
  config.containment = options;
  config.enable_cache = false;
  config.route_streaming_single_conjunct = false;
  config.executor_threads = 1;
  return config;
}

}  // namespace

Result<ContainmentReport> CheckContainment(const ConjunctiveQuery& q,
                                           const ConjunctiveQuery& q_prime,
                                           const DependencySet& deps,
                                           SymbolTable& symbols,
                                           const ContainmentOptions& options) {
  ContainmentEngine engine(&q.catalog(), &symbols,
                           ThrowawayEngineConfig(options));
  CQCHASE_ASSIGN_OR_RETURN(EngineVerdict verdict,
                           engine.Check(q, q_prime, deps));
  return std::move(verdict.report);
}

Result<bool> CheckEquivalence(const ConjunctiveQuery& q,
                              const ConjunctiveQuery& q_prime,
                              const DependencySet& deps, SymbolTable& symbols,
                              const ContainmentOptions& options) {
  ContainmentEngine engine(&q.catalog(), &symbols,
                           ThrowawayEngineConfig(options));
  return engine.CheckEquivalence(q, q_prime, deps);
}

// Declared in core/certificate.h. The certificate comes from the engine's
// own decision loop: Execute validates the task and refuses a
// non-certifiable Σ, and DecideByChase extracts the proof from the chase
// that found the witness.
Result<std::optional<ContainmentCertificate>> BuildCertificate(
    const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime,
    const DependencySet& deps, SymbolTable& symbols,
    const ContainmentOptions& options) {
  ContainmentEngine engine(&q.catalog(), &symbols,
                           ThrowawayEngineConfig(options));
  RequestOptions request;
  request.want_certificate = true;
  CQCHASE_ASSIGN_OR_RETURN(
      EngineOutcome outcome,
      engine
          .Submit(ContainmentRequest::Borrow(q, q_prime, deps,
                                             std::move(request)))
          .Get());
  return std::move(outcome.certificate);
}

}  // namespace cqchase
