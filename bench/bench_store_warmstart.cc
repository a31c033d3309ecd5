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
//      of verdict parity. After the parity pass it reopens the store as the
//      only tier, so every ask is a store hit, and times those hits in
//      interleaved blocks through Submit -> Get and through the inline
//      Check, pinned to one CPU. A store hit is answered on the submitting
//      thread, so it must not pay an executor hand-off: the run also exits
//      non-zero when the Submit -> Get p50 exceeds 1.2x the Check p50.
#include <sched.h>

#include <algorithm>
#include <chrono>
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

// The hit-latency gate: Submit -> Get of a store hit may cost at most this
// multiple of the same hit through the inline Check.
constexpr double kMaxSubmitOverCheck = 1.2;
constexpr int kTimedBlocks = 12;  // per path, interleaved
constexpr int kRepsPerBlock = 40;  // passes over the workload per block

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// Per-ask latencies of store hits, Submit -> Get and inline Check, taken in
// alternating blocks (which path runs first flips every block) so host
// drift lands on both alike. Counts asks that were not store hits.
struct HitTimings {
  std::vector<double> submit_us;
  std::vector<double> check_us;
  size_t not_store_hits = 0;
};

HitTimings TimeStoreHits(ContainmentEngine& engine,
                         const bench::ContainmentWorkload& w) {
  using Clock = std::chrono::steady_clock;
  HitTimings t;
  const size_t tasks = w.lhs.size();
  auto micros = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  auto submit_block = [&] {
    for (int r = 0; r < kRepsPerBlock; ++r) {
      for (size_t i = 0; i < tasks; ++i) {
        const Clock::time_point t0 = Clock::now();
        Result<EngineOutcome> outcome =
            engine.Submit(ContainmentRequest::Borrow(w.lhs[i], w.rhs[i], w.deps))
                .Get();
        const Clock::time_point t1 = Clock::now();
        t.submit_us.push_back(micros(t0, t1));
        if (!outcome.ok() || !outcome->verdict.store_hit) ++t.not_store_hits;
      }
    }
  };
  auto check_block = [&] {
    for (int r = 0; r < kRepsPerBlock; ++r) {
      for (size_t i = 0; i < tasks; ++i) {
        const Clock::time_point t0 = Clock::now();
        Result<EngineVerdict> verdict =
            engine.Check(w.lhs[i], w.rhs[i], w.deps);
        const Clock::time_point t1 = Clock::now();
        t.check_us.push_back(micros(t0, t1));
        if (!verdict.ok() || !verdict->store_hit) ++t.not_store_hits;
      }
    }
  };
  check_block();  // warm-up, untimed
  t.check_us.clear();
  t.not_store_hits = 0;
  for (int b = 0; b < kTimedBlocks; ++b) {
    if (b % 2 == 0) {
      submit_block();
      check_block();
    } else {
      check_block();
      submit_block();
    }
  }
  return t;
}

}  // namespace
}  // namespace cqchase

int main(int argc, char** argv) {
  using namespace cqchase;
  const std::string store_dir = argc > 1 ? argv[1] : "warmstart-store";
  const bool expect_warm =
      argc > 2 && std::strcmp(argv[2], "--warm") == 0;

  // Timing runs pin the whole process (the executor's workers start later
  // and inherit the mask) to the CPU it started on, so client and worker
  // share one CPU, as they do in perfbench.
  int pinned_cpu = -1;
  if (expect_warm) {
    pinned_cpu = sched_getcpu();
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(pinned_cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) pinned_cpu = -1;
  }

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

  // The hit-latency pass: the store reopened as the only tier, so nothing
  // promotes a hit into an LRU and every ask below is a store hit.
  HitTimings hits;
  double submit_p50_us = 0;
  double check_p50_us = 0;
  if (expect_warm && mismatches == 0 && errors == 0) {
    EngineConfig timing_config;
    timing_config.executor_threads = 1;
    timing_config.tiers = {TierSpec::LocalStore(store_dir)};
    ContainmentEngine engine(w.catalog.get(), w.symbols.get(), timing_config);
    if (engine.store() == nullptr) {
      std::fprintf(stderr, "FAIL: store did not reopen: %s\n",
                   engine.store_status().ToString().c_str());
      return 1;
    }
    hits = TimeStoreHits(engine, w);
    submit_p50_us = Median(hits.submit_us);
    check_p50_us = Median(hits.check_us);
    std::printf(
        "  store hits  : Submit->Get p50 %.3f us, Check p50 %.3f us "
        "(%.2fx; %d interleaved blocks x %zu asks each, cpu %d)\n\n",
        submit_p50_us, check_p50_us,
        check_p50_us > 0 ? submit_p50_us / check_p50_us : 0.0, kTimedBlocks,
        kRepsPerBlock * tasks, pinned_cpu);
  }

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
      {"errors", static_cast<double>(errors)},
      {"hit_submit_get_p50_us", submit_p50_us},
      {"hit_check_p50_us", check_p50_us}};
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
    if (hits.not_store_hits != 0) {
      std::fprintf(stderr,
                   "FAIL: %zu timed asks were not store hits (want every "
                   "one answered by the store)\n",
                   hits.not_store_hits);
      return 1;
    }
    if (submit_p50_us > kMaxSubmitOverCheck * check_p50_us) {
      std::fprintf(stderr,
                   "FAIL: store-hit Submit->Get p50 %.3f us exceeds %.1fx the "
                   "inline Check p50 %.3f us (a local hit must not pay the "
                   "executor hand-off)\n",
                   submit_p50_us, kMaxSubmitOverCheck, check_p50_us);
      return 1;
    }
  }
  std::printf("PASS\n");
  return 0;
}
