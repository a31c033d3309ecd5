// E-TIER-STACK — the composable verdict-tier hierarchy end to end: two
// engines in one process share a verdict authority over the loopback
// RemoteTier (engine/remote_tier.h). Engine A decides a deterministic
// workload cold and publishes every verdict (write-behind, drained at
// teardown); engine B — cold LRU, no local store — must then answer the
// whole repeated workload *entirely* over the remote tier.
//
// Enforced gates (exit non-zero on violation, wired into ci.sh):
//   * verdict parity: A and B agree with a tier-less oracle task by task;
//   * chases_built == 0 for engine B — every answer arrived over the wire;
//   * remote_hits > 0 for engine B (the zero-chase run was not an accident
//     of some other cache).
//
// This is the distributed-tier contract of the ROADMAP ("the log, shipped")
// proven in-process; a TCP transport swaps in under the same gate.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/string_util.h"
#include "bench/bench_util.h"
#include "engine/engine.h"
#include "engine/remote_tier.h"
#include "gen/generators.h"

namespace cqchase {
namespace {

EngineConfig LoopbackConfig(
    const std::shared_ptr<VerdictAuthority>& authority) {
  EngineConfig config;
  config.tiers = {
      TierSpec::Lru(1 << 16),
      TierSpec::Remote(std::make_shared<InProcessTransport>(authority))};
  return config;
}

}  // namespace
}  // namespace cqchase

int main() {
  using namespace cqchase;

  bench::PrintHeader(
      "E-TIER-STACK / verdict sharing over the loopback RemoteTier",
      "a second engine with cold local caches answers a repeated canonical "
      "workload entirely over the remote verdict tier: zero chases built, "
      "verdicts identical to a tier-less engine");

  const size_t kClasses = 10;
  const size_t kCopies = 3;
  // Deterministic (fixed seeds); copies within a class are isomorphic, so
  // the canonical keys engine B computes equal the ones engine A published.
  bench::ContainmentWorkload w =
      bench::BuildContainmentWorkload(kClasses, kCopies, /*catalog_seed=*/17,
                                      /*class_seed_base=*/7000);
  const size_t tasks = w.lhs.size();

  // Oracle: no tiers beyond its own LRU — ground truth for this process.
  ContainmentEngine oracle(w.catalog.get(), w.symbols.get(), EngineConfig{});
  std::vector<Result<EngineVerdict>> oracle_results =
      bench::DecideAll(oracle, w.lhs, w.rhs, w.deps);

  auto authority = std::make_shared<VerdictAuthority>();

  // Engine A: decides cold, publishes over the loopback. Scope exit drains
  // the write-behind flush — the same shutdown path a real process takes.
  EngineStats a_stats;
  double a_ms = 0;
  std::vector<Result<EngineVerdict>> a_results;
  {
    ContainmentEngine a(w.catalog.get(), w.symbols.get(),
                        LoopbackConfig(authority));
    bench::WallTimer timer;
    a_results = bench::DecideAll(a, w.lhs, w.rhs, w.deps);
    a_ms = timer.ElapsedMs();
    a_stats = a.stats();
  }

  // Engine B: cold LRU, same authority — the "other node".
  EngineConfig b_config = LoopbackConfig(authority);
  ContainmentEngine b(w.catalog.get(), w.symbols.get(), b_config);
  bench::WallTimer timer;
  std::vector<Result<EngineVerdict>> b_results =
      bench::DecideAll(b, w.lhs, w.rhs, w.deps);
  const double b_ms = timer.ElapsedMs();
  const EngineStats b_stats = b.stats();
  const std::vector<VerdictTierStats> b_tiers = b.tier_stats();
  const VerdictAuthority::Stats authority_stats = authority->stats();

  size_t contained = 0;
  size_t mismatches = 0;
  size_t errors = 0;
  for (size_t i = 0; i < tasks; ++i) {
    if (!oracle_results[i].ok() || !a_results[i].ok() || !b_results[i].ok()) {
      ++errors;
      continue;
    }
    if (oracle_results[i]->report.contained != a_results[i]->report.contained ||
        oracle_results[i]->report.contained != b_results[i]->report.contained) {
      ++mismatches;
    }
    if (b_results[i]->report.contained) ++contained;
  }

  std::printf("%zu tasks (%zu classes x %zu copies), authority: %zu verdicts\n",
              tasks, kClasses, kCopies, authority->size());
  std::printf("  engine A (cold, publisher): %8.3f ms, %llu chases\n", a_ms,
              static_cast<unsigned long long>(a_stats.chases_built));
  std::printf("  engine B (remote-served)  : %8.3f ms, %llu chases\n", b_ms,
              static_cast<unsigned long long>(b_stats.chases_built));
  std::printf(
      "  engine B tiers: remote hits %llu, lru hits %llu; authority "
      "fetches %llu (%llu hits), accepted %llu\n",
      static_cast<unsigned long long>(b_stats.remote_hits),
      static_cast<unsigned long long>(b_stats.cache_hits),
      static_cast<unsigned long long>(authority_stats.fetches),
      static_cast<unsigned long long>(authority_stats.fetch_hits),
      static_cast<unsigned long long>(authority_stats.publishes_accepted));
  std::printf("  verdicts: %zu contained, %zu mismatches, %zu errors\n\n",
              contained, mismatches, errors);

  std::vector<std::pair<std::string, double>> counters = {
      {"tasks", static_cast<double>(tasks)},
      {"authority_entries", static_cast<double>(authority->size())},
      {"authority_fetches", static_cast<double>(authority_stats.fetches)},
      {"a_chases_built", static_cast<double>(a_stats.chases_built)},
      {"chases_built", static_cast<double>(b_stats.chases_built)},
      {"cache_hits", static_cast<double>(b_stats.cache_hits)},
      {"mismatches", static_cast<double>(mismatches)},
      {"errors", static_cast<double>(errors)}};
  bench::AppendEngineCounters(b_stats, counters);
  bench::AppendTierCounters(b_tiers, counters);
  bench::AppendEngineConfig(b_config, counters);
  bench::PrintJsonRecord("tier_stack", b_ms, counters);

  if (mismatches > 0 || errors > 0) {
    std::fprintf(stderr,
                 "FAIL: tier-served verdicts diverge from the oracle\n");
    return 1;
  }
  if (b_stats.chases_built != 0) {
    std::fprintf(stderr,
                 "FAIL: engine B built %llu chases (want 0: every verdict "
                 "should arrive over the remote tier)\n",
                 static_cast<unsigned long long>(b_stats.chases_built));
    return 1;
  }
  if (b_stats.remote_hits == 0) {
    std::fprintf(stderr, "FAIL: engine B served no remote hits\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
