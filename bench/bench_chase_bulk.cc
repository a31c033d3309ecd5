// Set-at-a-time chase core vs. the scalar oracle on a wide-Σ workload.
//
// The columnar core's advantage grows with |Σ|: witness probes for the
// hundreds of INDs sharing a target projection collapse into one shared
// group index, applicability checks become bitmask words instead of
// per-(conjunct, IND) set lookups, and a whole level segment is minted per
// (level, IND) batch. A schema with ~300 distinct width-1 INDs is where the
// paper's decision procedure actually lives (Σ is the input, not a
// constant), so that is the enforced configuration; a tiny-Σ run rides
// along report-only to show the crossover.
//
// ENFORCED GATE: on the wide-Σ case the bulk core must (a) produce a
// byte-identical chase prefix (ToString), identical step count, and the
// same terminal status as the scalar core, and (b) run >= 2x faster
// (best-of-N wall time). Any violation exits non-zero so ci.sh fails the
// perf stage.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "chase/chase.h"
#include "gen/generators.h"

namespace cqchase {
namespace {

using bench::PrintJsonRecord;
using bench::WallTimer;

struct CaseSpec {
  const char* name;
  size_t num_relations;
  size_t num_inds;
  size_t query_conjuncts;
  uint32_t max_level;
  size_t max_conjuncts;
  bool enforce;  // false => degraded gate (tiny Σ): informational only
};

// One self-owning universe; regenerated fresh (same seed) for every run so
// the two cores and every timing repetition see byte-identical inputs.
struct Universe {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<SymbolTable> symbols;
  std::unique_ptr<DependencySet> deps;
  std::vector<ConjunctiveQuery> query;  // exactly one; no default ctor
};

Universe BuildUniverse(const CaseSpec& spec, uint64_t seed) {
  Universe u;
  u.catalog = std::make_unique<Catalog>();
  u.symbols = std::make_unique<SymbolTable>();
  u.deps = std::make_unique<DependencySet>();
  Rng rng(seed);
  RandomCatalogParams cp;
  cp.num_relations = spec.num_relations;
  cp.min_arity = 2;
  cp.max_arity = 3;
  *u.catalog = RandomCatalog(rng, cp);
  RandomIndParams ip;
  ip.count = spec.num_inds;
  ip.width = 1;
  *u.deps = RandomIndOnlyDeps(rng, *u.catalog, ip);
  RandomQueryParams qp;
  qp.num_conjuncts = spec.query_conjuncts;
  qp.num_vars = spec.query_conjuncts + 2;
  qp.num_dist_vars = 2;
  u.query.push_back(RandomQuery(rng, *u.catalog, *u.symbols, qp));
  return u;
}

struct RunResult {
  double wall_ms = 0.0;
  StatusCode status = StatusCode::kOk;
  size_t conjuncts = 0;
  size_t steps = 0;
  std::string rendering;  // chase ToString, the parity fingerprint
  ChaseStats stats;
};

RunResult RunOnce(const CaseSpec& spec, uint64_t seed, ChaseCoreMode mode) {
  Universe u = BuildUniverse(spec, seed);
  ChaseLimits limits;
  limits.core = mode;
  limits.max_level = spec.max_level + 1;
  limits.max_conjuncts = spec.max_conjuncts;
  Chase chase(u.catalog.get(), u.symbols.get(), u.deps.get(),
              ChaseVariant::kRequired, limits);
  Status init = chase.Init(u.query[0]);
  if (!init.ok()) {
    std::fprintf(stderr, "FATAL: Init failed: %s\n", init.ToString().c_str());
    std::exit(1);
  }
  RunResult r;
  WallTimer timer;
  Result<ChaseOutcome> outcome = chase.ExpandToLevel(spec.max_level);
  r.wall_ms = timer.ElapsedMs();
  r.status = outcome.status().code();
  // kResourceExhausted keeps a valid partial prefix — that prefix is the
  // workload; any other failure is a bench bug.
  if (!outcome.ok() && r.status != StatusCode::kResourceExhausted) {
    std::fprintf(stderr, "FATAL: chase failed: %s\n",
                 outcome.status().ToString().c_str());
    std::exit(1);
  }
  r.conjuncts = chase.conjuncts().size();
  r.steps = chase.steps();
  r.rendering = chase.ToString();
  r.stats = chase.chase_stats();
  return r;
}

RunResult BestOf(const CaseSpec& spec, uint64_t seed, ChaseCoreMode mode,
                 int reps) {
  RunResult best = RunOnce(spec, seed, mode);
  for (int i = 1; i < reps; ++i) {
    RunResult r = RunOnce(spec, seed, mode);
    if (r.wall_ms < best.wall_ms) best = std::move(r);
  }
  return best;
}

void EmitRecord(const CaseSpec& spec, const char* core, const RunResult& r,
                double speedup) {
  std::vector<std::pair<std::string, double>> counters;
  counters.emplace_back("enforced", spec.enforce ? 1.0 : 0.0);
  counters.emplace_back("inds", static_cast<double>(spec.num_inds));
  counters.emplace_back("conjuncts", static_cast<double>(r.conjuncts));
  counters.emplace_back("steps", static_cast<double>(r.steps));
  counters.emplace_back("index_rebuilds",
                        static_cast<double>(r.stats.index_rebuilds));
  counters.emplace_back("fd_merges", static_cast<double>(r.stats.fd_merges));
  counters.emplace_back("segments_built",
                        static_cast<double>(r.stats.segments_built));
  counters.emplace_back("bulk_batches",
                        static_cast<double>(r.stats.bulk_batches));
  counters.emplace_back("bulk_ind_applications",
                        static_cast<double>(r.stats.bulk_ind_applications));
  counters.emplace_back("max_batch_rows",
                        static_cast<double>(r.stats.max_batch_rows));
  counters.emplace_back("prepare_ms", r.stats.prepare_ms);
  counters.emplace_back("join_ms", r.stats.join_ms);
  counters.emplace_back("retain_ms", r.stats.retain_ms);
  counters.emplace_back("fd_ms", r.stats.fd_ms);
  counters.emplace_back("speedup", speedup);
  PrintJsonRecord(std::string("chase_bulk_") + spec.name + "_" + core,
                  r.wall_ms, counters);
}

// Returns true iff the case passes parity + (when enforced) the 2x bound.
bool RunCase(const CaseSpec& spec, uint64_t seed, int reps) {
  std::printf("--- case %s: %zu relations, %zu INDs (requested), depth %u\n",
              spec.name, spec.num_relations, spec.num_inds, spec.max_level);
  RunResult scalar = BestOf(spec, seed, ChaseCoreMode::kScalar, reps);
  RunResult bulk = BestOf(spec, seed, ChaseCoreMode::kBulk, reps);
  const double speedup =
      bulk.wall_ms > 0.0 ? scalar.wall_ms / bulk.wall_ms : 0.0;

  bool parity = true;
  if (scalar.status != bulk.status) {
    std::printf("PARITY MISMATCH: terminal status differs (%d vs %d)\n",
                static_cast<int>(scalar.status), static_cast<int>(bulk.status));
    parity = false;
  }
  if (scalar.conjuncts != bulk.conjuncts || scalar.steps != bulk.steps) {
    std::printf(
        "PARITY MISMATCH: conjuncts %zu vs %zu, steps %zu vs %zu\n",
        scalar.conjuncts, bulk.conjuncts, scalar.steps, bulk.steps);
    parity = false;
  }
  if (scalar.rendering != bulk.rendering) {
    std::printf("PARITY MISMATCH: chase renderings differ\n");
    parity = false;
  }

  EmitRecord(spec, "scalar", scalar, speedup);
  EmitRecord(spec, "bulk", bulk, speedup);
  std::printf(
      "%-10s scalar %9.3f ms | bulk %9.3f ms | speedup %5.2fx | "
      "%zu conjuncts, %zu steps, %" PRIu64 " segments | "
      "join %.1f retain %.1f fd %.1f ms\n",
      spec.name, scalar.wall_ms, bulk.wall_ms, speedup, bulk.conjuncts,
      bulk.steps, bulk.stats.segments_built, bulk.stats.join_ms,
      bulk.stats.retain_ms, bulk.stats.fd_ms);

  if (!parity) return false;
  if (!spec.enforce) {
    std::printf("degraded gate (tiny Σ): informational only\n");
    return true;
  }
  if (speedup < 2.0) {
    std::printf("GATE FAILED: bulk speedup %.2fx < 2.00x required\n", speedup);
    return false;
  }
  std::printf("gate ok: parity exact, speedup %.2fx >= 2.00x\n", speedup);
  return true;
}

}  // namespace
}  // namespace cqchase

int main() {
  using cqchase::CaseSpec;
  cqchase::bench::PrintHeader(
      "bench_chase_bulk",
      "set-at-a-time IND application is the profitable regime when |Sigma| "
      "is large — the complexity driver of the containment problem");

  // Wide Σ: ~12 relations of arity 2-3 support ~300 distinct width-1 INDs
  // (the generator dedups, so the realized count prints per record).
  const CaseSpec wide = {"wide",  12,   300, 8, 3,
                         60000,   true};
  // Tiny Σ: batch sizes of a handful of rows; bulk bookkeeping may not pay
  // for itself, which is exactly why the scalar oracle stays available.
  const CaseSpec tiny = {"tiny",  3,    4,   5, 3,
                         60000,   false};

  bool ok = true;
  ok &= cqchase::RunCase(wide, /*seed=*/20260808, /*reps=*/3);
  ok &= cqchase::RunCase(tiny, /*seed=*/20260808, /*reps=*/3);
  if (!ok) {
    std::printf("\nbench_chase_bulk: FAILED\n");
    return 1;
  }
  std::printf("\nbench_chase_bulk: OK\n");
  return 0;
}
