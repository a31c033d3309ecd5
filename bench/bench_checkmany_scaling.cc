// E-SCALING — CheckMany thread-scaling on a mixed FD/IND workload: the same
// batch of containment tasks over a key-based Σ (FDs: key → non-key columns,
// INDs: foreign-key style, the paper's Theorem 2 case (ii)) is evaluated
// with 1, 4 and 8 workers. Since PR 2 the chase hot path holds no lock at
// all — each chase mints NDVs from its own sharded arena block, the engine
// caches are brief LRU lookups, and shared chase prefixes serialize only
// same-exact-key askers — so worker fan-out should scale with the cores the
// host actually grants.
//
// Exit code enforces the claim: non-zero if the three runs' verdicts
// diverge, or if the 8-worker throughput misses the target for the host's
// usable core count — >= 2x on >= 4 cores (the
// acceptance bar), a reduced bar on 2-3 cores, and on a single-core host
// (where no wall-clock speedup is physically possible) the gate degrades to
// "8x oversubscription costs <= 1/0.75 of sequential", which still fails if
// workers contend on a hot-path lock. Each worker count is measured
// best-of-2 on a fresh engine to damp scheduler-timing spikes on starved
// CI hosts (see the comment at the run sites).
#include <cstdio>
#include <memory>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include <thread>

#include "base/rng.h"
#include "base/string_util.h"
#include "bench/bench_util.h"
#include "engine/engine.h"
#include "gen/generators.h"

namespace cqchase {
namespace {

unsigned UsableCores() {
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
#endif
  unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

struct Workload {
  // unique_ptrs keep the catalog and symbol-table addresses stable across
  // moves of the Workload itself — the queries hold pointers into them.
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<SymbolTable> symbols;
  DependencySet deps;
  std::vector<ConjunctiveQuery> lhs;
  std::vector<ConjunctiveQuery> rhs;
};

Workload BuildWorkload(size_t num_tasks) {
  Workload w;
  w.symbols = std::make_unique<SymbolTable>();
  Rng rng(19);
  RandomCatalogParams cp;
  cp.num_relations = 3;
  cp.min_arity = 2;
  cp.max_arity = 3;
  w.catalog = std::make_unique<Catalog>(RandomCatalog(rng, cp));
  // Mixed FD/IND Σ: per-relation key FDs plus INDs into keys (key-based,
  // so every task is decidable by the Lemma 5 bounded chase). Kept small
  // enough that the Lemma 5 bound |Q'|·|Σ|·(W+1)^W fits inside the default
  // max_level — every task must *decide*, not trip a budget.
  RandomKeyBasedParams kp;
  kp.key_size = 1;
  kp.num_inds = 4;
  w.deps = RandomKeyBasedDeps(rng, *w.catalog, kp);

  w.lhs.reserve(num_tasks);
  w.rhs.reserve(num_tasks);
  for (size_t i = 0; i < num_tasks; ++i) {
    RandomQueryParams qp;
    qp.num_conjuncts = 4;
    qp.num_vars = 6;
    qp.name_prefix = StrCat("L", i, "_");
    w.lhs.push_back(RandomQuery(rng, *w.catalog, *w.symbols, qp));
    // Odd tasks plant Q' inside a chase prefix of Q (contained by
    // construction); even tasks pair an independent random Q' (almost
    // always not contained) — both verdicts flow through every run.
    if (i % 2 == 1) {
      Result<ConjunctiveQuery> planted = PlantedSuperQuery(
          rng, w.lhs.back(), w.deps, *w.symbols, /*extra_conjuncts=*/2,
          /*chase_depth=*/2);
      if (planted.ok()) {
        w.rhs.push_back(*std::move(planted));
        continue;
      }
    }
    qp.num_conjuncts = 2;
    qp.num_vars = 4;
    qp.name_prefix = StrCat("R", i, "_");
    w.rhs.push_back(RandomQuery(rng, *w.catalog, *w.symbols, qp));
  }
  return w;
}

struct RunResult {
  double ms = 0;
  std::vector<Result<EngineVerdict>> verdicts;
  EngineStats stats;
};

RunResult RunWith(const Workload& w, const std::vector<ContainmentTask>& tasks,
                  size_t workers) {
  EngineConfig config;
  config.num_threads = workers;
  ContainmentEngine engine(w.catalog.get(), w.symbols.get(), config);
  RunResult r;
  bench::WallTimer timer;
  r.verdicts = engine.CheckMany(tasks);
  r.ms = timer.ElapsedMs();
  r.stats = engine.stats();
  return r;
}

}  // namespace
}  // namespace cqchase

int main() {
  using namespace cqchase;
  bench::PrintHeader(
      "E-SCALING / CheckMany worker fan-out on the lock-free chase path",
      "a mixed FD/IND containment batch gains >= 2x throughput at 8 workers "
      "vs 1 on a multi-core host, with identical verdicts (sharded NDV "
      "arena: no lock on the chase hot path)");

  const size_t kTasks = 64;
  Workload w = BuildWorkload(kTasks);
  std::vector<ContainmentTask> tasks;
  tasks.reserve(w.lhs.size());
  for (size_t i = 0; i < w.lhs.size(); ++i) {
    tasks.push_back(ContainmentTask{&w.lhs[i], &w.rhs[i], &w.deps});
  }

  // Best-of-2 per worker count (fresh engine each run, alternating order):
  // since CheckMany rides the persistent executor, a single oversubscribed
  // run on a starved host can catch a scheduler-timing spike that the old
  // spawn-and-join fan-out averaged away; the second sample damps exactly
  // that noise without touching the gate itself.
  RunResult run1 = RunWith(w, tasks, 1);
  RunResult run4 = RunWith(w, tasks, 4);
  RunResult run8 = RunWith(w, tasks, 8);
  {
    RunResult again1 = RunWith(w, tasks, 1);
    if (again1.ms < run1.ms) run1 = std::move(again1);
    RunResult again4 = RunWith(w, tasks, 4);
    if (again4.ms < run4.ms) run4 = std::move(again4);
    RunResult again8 = RunWith(w, tasks, 8);
    if (again8.ms < run8.ms) run8 = std::move(again8);
  }

  size_t contained = 0;
  size_t errors = 0;
  size_t mismatches = 0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    const bool ok1 = run1.verdicts[i].ok();
    if (ok1 != run4.verdicts[i].ok() || ok1 != run8.verdicts[i].ok()) {
      ++mismatches;
      continue;
    }
    if (!ok1) {
      ++errors;
      continue;
    }
    const bool c1 = run1.verdicts[i]->report.contained;
    if (c1 != run4.verdicts[i]->report.contained ||
        c1 != run8.verdicts[i]->report.contained) {
      ++mismatches;
    }
    if (c1) ++contained;
  }

  const double speedup4 = run4.ms > 0 ? run1.ms / run4.ms : 0.0;
  const double speedup8 = run8.ms > 0 ? run1.ms / run8.ms : 0.0;
  const unsigned cores = UsableCores();
  // The acceptance bar needs hardware to scale onto; degrade honestly when
  // the host grants fewer cores rather than measure a fiction. On one core
  // the gate only polices pathological contention (a hot-path lock shows up
  // as oversubscription collapse), so it sits well below 1x with headroom
  // for scheduler noise.
  const double target = cores >= 4 ? 2.0 : cores >= 2 ? 1.3 : 0.6;

  std::printf("%zu tasks, mixed FD/IND (key-based) Sigma, %u usable core(s)\n",
              tasks.size(), cores);
  std::printf("  1 worker : %9.3f ms  (%llu chases built)\n", run1.ms,
              static_cast<unsigned long long>(run1.stats.chases_built));
  std::printf("  4 workers: %9.3f ms  (speedup %5.2fx)\n", run4.ms, speedup4);
  std::printf("  8 workers: %9.3f ms  (speedup %5.2fx, target >= %.2fx)\n",
              run8.ms, speedup8, target);
  std::printf("  verdicts : %zu contained, %zu mismatches, %zu errors\n",
              contained, mismatches, errors);
  std::printf("  arena    : %llu NDVs minted, %llu block handoffs\n\n",
              static_cast<unsigned long long>(w.symbols->num_nondist_vars()),
              static_cast<unsigned long long>(
                  w.symbols->ndv_blocks_handed_out()));

  std::vector<std::pair<std::string, double>> counters = {
      {"tasks", static_cast<double>(tasks.size())},
      {"ms_1", run1.ms},
      {"ms_4", run4.ms},
      {"ms_8", run8.ms},
      {"speedup_4v1", speedup4},
      {"speedup_8v1", speedup8},
      {"usable_cores", static_cast<double>(cores)},
      {"target", target},
      {"ndvs_minted", static_cast<double>(w.symbols->num_nondist_vars())},
      {"ndv_block_handoffs",
       static_cast<double>(w.symbols->ndv_blocks_handed_out())},
      {"mismatches", static_cast<double>(mismatches)},
      {"errors", static_cast<double>(errors)}};
  // The 8-worker run's scheduler health: CheckMany batches now ride the
  // persistent executor, so its steal/queue counters are part of the
  // scaling story this bench records.
  bench::AppendEngineCounters(run8.stats, counters);
  // The cache knobs are the EngineConfig defaults in all three runs (the
  // worker counts this bench varies are already in ms_1/ms_4/ms_8 and the
  // speedup series).
  bench::AppendEngineConfig(EngineConfig{}, counters);
  bench::PrintJsonRecord("checkmany_scaling", run1.ms + run4.ms + run8.ms,
                         counters);

  if (mismatches > 0) {
    std::fprintf(stderr, "FAIL: verdicts diverge across worker counts\n");
    return 1;
  }
  if (speedup8 < target) {
    std::fprintf(stderr,
                 "FAIL: 8-worker speedup %.2fx below the %.2fx target for %u "
                 "usable core(s)\n",
                 speedup8, target, cores);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
