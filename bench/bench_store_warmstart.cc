// E-STORE-WARMSTART — the persistent verdict tier across process restarts:
// a fleet that restarts should not re-pay the chase cost for containment
// decisions it has already made. This bench runs one deterministic repeated
// workload through a store-backed engine and checks, task by task, that the
// verdicts match a fresh store-less engine (the oracle).
//
// CI runs the binary twice against the same store directory:
//   1. cold  (`bench_store_warmstart <dir>`)        — populates the store;
//      only verdict parity is enforced.
//   2. warm  (`bench_store_warmstart <dir> --warm`) — a "restarted process":
//      every canonical key must now be answered from the store, so the run
//      exits non-zero unless chases_built == 0 and store_hits > 0, on top
//      of verdict parity.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/string_util.h"
#include "bench/bench_util.h"
#include "engine/engine.h"
#include "gen/generators.h"

namespace cqchase {
namespace {
// Workload: bench::BuildContainmentWorkload with this bench's historical
// seeds. Deterministic, so both CI invocations regenerate byte-identical
// queries and the warm run's canonical keys equal the cold run's — the
// whole point of the gate.
}  // namespace
}  // namespace cqchase

int main(int argc, char** argv) {
  using namespace cqchase;
  const std::string store_dir = argc > 1 ? argv[1] : "warmstart-store";
  const bool expect_warm =
      argc > 2 && std::strcmp(argv[2], "--warm") == 0;

  bench::PrintHeader(
      "E-STORE-WARMSTART / persistent verdict tier across restarts",
      "a second engine process opened on the same store answers a repeated "
      "canonical workload with zero chases built, with verdicts identical "
      "to a fresh engine");

  const size_t kClasses = 10;
  const size_t kCopies = 3;
  bench::ContainmentWorkload w =
      bench::BuildContainmentWorkload(kClasses, kCopies, /*catalog_seed=*/11,
                                      /*class_seed_base=*/4000);
  const size_t tasks = w.lhs.size();

  // Oracle: no store, fresh caches — ground truth for this process.
  EngineConfig oracle_config;
  ContainmentEngine oracle(w.catalog.get(), w.symbols.get(), oracle_config);
  std::vector<Result<EngineVerdict>> oracle_results =
      bench::DecideAll(oracle, w.lhs, w.rhs, w.deps);

  // The engine under test, backed by the (possibly pre-populated) store.
  EngineConfig store_config;
  store_config.tiers = {TierSpec::Lru(store_config.verdict_cache_capacity),
                        TierSpec::LocalStore(store_dir)};
  EngineStats stats;
  VerdictStoreStats store_stats;
  std::vector<Result<EngineVerdict>> store_results;
  double store_ms = 0;
  bool store_opened = false;
  {
    ContainmentEngine engine(w.catalog.get(), w.symbols.get(), store_config);
    store_opened = engine.store() != nullptr;
    if (!store_opened) {
      std::fprintf(stderr, "FAIL: store did not open: %s\n",
                   engine.store_status().ToString().c_str());
      return 1;
    }
    bench::WallTimer timer;
    store_results = bench::DecideAll(engine, w.lhs, w.rhs, w.deps);
    store_ms = timer.ElapsedMs();
    stats = engine.stats();
    store_stats = engine.store()->stats();
    // Scope exit: the executor drains the write-behind flush, the store
    // compacts — exactly the shutdown path a restarting process takes.
  }

  size_t contained = 0;
  size_t mismatches = 0;
  size_t errors = 0;
  for (size_t i = 0; i < tasks; ++i) {
    if (!oracle_results[i].ok() || !store_results[i].ok()) {
      ++errors;
      continue;
    }
    if (oracle_results[i]->report.contained !=
        store_results[i]->report.contained) {
      ++mismatches;
    }
    if (store_results[i]->report.contained) ++contained;
  }

  std::printf("%zu tasks (%zu classes x %zu copies), store: %s (%s)\n",
              tasks, kClasses, kCopies, store_dir.c_str(),
              expect_warm ? "warm run" : "cold run");
  std::printf("  store-backed: %8.3f ms\n", store_ms);
  std::printf(
      "  chases built: %llu   store hits: %llu   store writes: %llu\n",
      static_cast<unsigned long long>(stats.chases_built),
      static_cast<unsigned long long>(stats.store_hits),
      static_cast<unsigned long long>(stats.store_writes));
  std::printf(
      "  store       : %llu entries (%llu from snapshot, %llu from log)\n",
      static_cast<unsigned long long>(store_stats.entries),
      static_cast<unsigned long long>(store_stats.snapshot_entries_loaded),
      static_cast<unsigned long long>(store_stats.log_entries_replayed));
  std::printf("  verdicts    : %zu contained, %zu mismatches, %zu errors\n\n",
              contained, mismatches, errors);

  std::vector<std::pair<std::string, double>> counters = {
      {"tasks", static_cast<double>(tasks)},
      {"warm", expect_warm ? 1.0 : 0.0},
      {"chases_built", static_cast<double>(stats.chases_built)},
      {"cache_hits", static_cast<double>(stats.cache_hits)},
      {"store_entries", static_cast<double>(store_stats.entries)},
      {"store_snapshot_loaded",
       static_cast<double>(store_stats.snapshot_entries_loaded)},
      {"store_log_replayed",
       static_cast<double>(store_stats.log_entries_replayed)},
      {"store_quarantined",
       static_cast<double>(store_stats.quarantined_files)},
      {"mismatches", static_cast<double>(mismatches)},
      {"errors", static_cast<double>(errors)}};
  bench::AppendEngineCounters(stats, counters);
  bench::AppendEngineConfig(store_config, counters);
  bench::PrintJsonRecord("store_warmstart", store_ms, counters);

  if (mismatches > 0 || errors > 0) {
    std::fprintf(stderr,
                 "FAIL: store-backed verdicts diverge from a fresh engine\n");
    return 1;
  }
  if (expect_warm) {
    if (stats.chases_built != 0) {
      std::fprintf(stderr,
                   "FAIL: warm run built %llu chases (want 0: every verdict "
                   "should come from the store)\n",
                   static_cast<unsigned long long>(stats.chases_built));
      return 1;
    }
    if (stats.store_hits == 0) {
      std::fprintf(stderr, "FAIL: warm run served no store hits\n");
      return 1;
    }
  }
  std::printf("PASS\n");
  return 0;
}
