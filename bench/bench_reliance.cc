// Σ reliance analysis: cost of the static pass, and the decidable fragment
// it unlocks.
//
// Part 1 (report-only): the SigmaGraph is built inside AnalyzeSigma, which
// sits on the hot path of every cache-missing Check. On a wide Σ (~300
// distinct width-1 INDs — the regime bench_chase_bulk enforces for the
// chase core) the full analysis (edge construction, IND critical path)
// must stay well under the cost of the chase it precedes;
// the record reports best-of-N wall time so the trajectory catches a
// regression from linear to quadratic edge construction.
//
// Part 2 (ENFORCED GATE): the paper's classes (FD-only, IND-only,
// key-based) left general FD+IND mixes undecided without
// allow_semidecision. The reliance analysis closes part of that gap: an
// acyclic IND reliance subgraph bounds the chase by its critical path, so
// kAcyclicInd tasks get a terminating decision procedure. The gate builds
// randomized acyclic FD+IND mixes that fall OUTSIDE every paper class,
// checks containment with allow_semidecision=false (the configuration the
// seed answered with kUnimplemented), and exits non-zero unless every task
// (a) classifies as kAcyclicInd, (b) dispatches to kIterativeDeepening or
// better, (c) returns a decided verdict — zero undecided — and (d) planted
// super-queries come back contained.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/reliance.h"
#include "base/rng.h"
#include "base/string_util.h"
#include "bench/bench_util.h"
#include "engine/engine.h"
#include "gen/generators.h"

namespace cqchase {
namespace {

using bench::PrintJsonRecord;
using bench::WallTimer;

// PrintJsonRecord prints integral doubles via %lld only below 9.0e15; a
// 48-bit slice of the 64-bit FNV fingerprint always prints exactly, and is
// still far too wide to collide by accident within one trajectory.
double FingerprintCounter(uint64_t fp) {
  return static_cast<double>(fp & ((uint64_t{1} << 48) - 1));
}

// --- Part 1: analysis cost on the wide-Σ workload ----------------------------

void RunAnalysisCost() {
  Rng rng(20260808);
  RandomCatalogParams cp;
  cp.num_relations = 12;
  cp.min_arity = 2;
  cp.max_arity = 3;
  const Catalog catalog = RandomCatalog(rng, cp);
  RandomIndParams ip;
  ip.count = 300;
  ip.width = 1;
  const DependencySet deps = RandomIndOnlyDeps(rng, catalog, ip);

  constexpr int kReps = 25;
  double best_ms = -1.0;
  std::shared_ptr<const SigmaGraph> graph;
  for (int i = 0; i < kReps; ++i) {
    WallTimer timer;
    auto g = std::make_shared<const SigmaGraph>(deps, catalog);
    const std::optional<uint32_t> depth = g->IndCriticalPath();
    const double ms = timer.ElapsedMs();
    (void)depth;
    if (best_ms < 0.0 || ms < best_ms) {
      best_ms = ms;
      graph = std::move(g);
    }
  }

  std::vector<std::pair<std::string, double>> counters;
  counters.emplace_back("inds", static_cast<double>(graph->num_inds()));
  counters.emplace_back("fds", static_cast<double>(graph->num_fds()));
  counters.emplace_back("edges", static_cast<double>(graph->edges().size()));
  counters.emplace_back("acyclic",
                        graph->IndSubgraphAcyclic() ? 1.0 : 0.0);
  counters.emplace_back("fingerprint",
                        FingerprintCounter(graph->Fingerprint()));
  PrintJsonRecord("reliance_analysis_wide", best_ms, counters);
  std::printf(
      "wide Σ analysis: %zu INDs, %zu edges | best of %d: %.3f ms "
      "(report-only; sub-ms expected)\n",
      graph->num_inds(), graph->edges().size(), kReps, best_ms);
}

// --- Part 2: the acyclic-fragment decidability gate --------------------------

struct AcyclicWorkload {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<SymbolTable> symbols;
  DependencySet deps;
  uint64_t seed = 0;
};

// Builds one acyclic FD+IND mix. Every IND points from a lower-indexed
// relation to a higher-indexed one (the relation order is a topological
// order, so no rejection sampling), and an FD on the last relation makes
// the mix general — not FD-only, not IND-only, and usually not key-based.
// Returns nullptr when the draw lands back inside a paper class (e.g. the
// INDs happen to avoid the FD's non-key columns); the caller skips to the
// next seed so every gated task really exercises kAcyclicInd.
std::unique_ptr<AcyclicWorkload> BuildAcyclicWorkload(uint64_t seed) {
  auto w = std::make_unique<AcyclicWorkload>();
  w->seed = seed;
  w->symbols = std::make_unique<SymbolTable>();
  Rng rng(seed);
  RandomCatalogParams cp;
  cp.num_relations = 5;
  cp.min_arity = 2;
  cp.max_arity = 3;
  w->catalog = std::make_unique<Catalog>(RandomCatalog(rng, cp));
  for (int i = 0; i < 5; ++i) {
    InclusionDependency ind;
    ind.lhs_relation =
        static_cast<RelationId>(rng.Index(w->catalog->num_relations() - 1));
    ind.rhs_relation = static_cast<RelationId>(
        rng.Uniform(ind.lhs_relation + 1, w->catalog->num_relations() - 1));
    ind.lhs_columns = {
        static_cast<uint32_t>(rng.Index(w->catalog->arity(ind.lhs_relation)))};
    ind.rhs_columns = {
        static_cast<uint32_t>(rng.Index(w->catalog->arity(ind.rhs_relation)))};
    if (!w->deps.AddInd(*w->catalog, ind).ok()) return nullptr;
  }
  FunctionalDependency fd;
  fd.relation = static_cast<RelationId>(w->catalog->num_relations() - 1);
  fd.lhs = {0};
  fd.rhs = 1;
  if (!w->deps.AddFd(*w->catalog, fd).ok()) return nullptr;
  const SigmaAnalysis a = AnalyzeSigma(w->deps, *w->catalog);
  if (a.sigma_class != SigmaClass::kAcyclicInd) return nullptr;
  return w;
}

bool RunDecidabilityGate() {
  constexpr size_t kWorkloads = 8;
  constexpr size_t kTasksPerWorkload = 4;  // planted + random per pair seed

  size_t tasks = 0;
  size_t undecided = 0;
  size_t contained = 0;
  size_t planted_checked = 0;
  size_t planted_missed = 0;
  size_t wrong_class = 0;
  size_t wrong_strategy = 0;
  double total_ms = 0.0;
  uint64_t fingerprint_xor = 0;

  uint64_t seed = 1;
  for (size_t built = 0; built < kWorkloads; ++seed) {
    std::unique_ptr<AcyclicWorkload> w = BuildAcyclicWorkload(seed);
    if (w == nullptr) continue;
    ++built;

    // The default engine config: allow_semidecision stays false, so any
    // task the dispatcher cannot prove terminating is a hard error here —
    // exactly the configuration the gate exists to protect.
    ContainmentEngine engine(w->catalog.get(), w->symbols.get());
    const SigmaAnalysis a = AnalyzeSigma(w->deps, *w->catalog);
    fingerprint_xor ^= a.graph->Fingerprint();

    Rng rng(w->seed * 1000003);
    for (size_t t = 0; t < kTasksPerWorkload; ++t) {
      RandomQueryParams qp;
      qp.num_conjuncts = 3;
      qp.num_vars = 5;
      qp.name_prefix = StrCat("w", w->seed, "t", t, "_");
      const ConjunctiveQuery q = RandomQuery(rng, *w->catalog, *w->symbols, qp);

      bool planted = (t % 2) == 1;
      ConjunctiveQuery q_prime = [&] {
        if (planted) {
          Result<ConjunctiveQuery> p =
              PlantedSuperQuery(rng, q, w->deps, *w->symbols,
                                /*extra_conjuncts=*/2, /*chase_depth=*/2);
          if (p.ok()) return *std::move(p);
          planted = false;  // fall back to a random (either-verdict) task
        }
        RandomQueryParams rp;
        rp.num_conjuncts = 2;
        rp.num_vars = 4;
        rp.name_prefix = StrCat("r", w->seed, "t", t, "_");
        return RandomQuery(rng, *w->catalog, *w->symbols, rp);
      }();

      ++tasks;
      WallTimer timer;
      Result<EngineVerdict> verdict = engine.Check(q, q_prime, w->deps);
      total_ms += timer.ElapsedMs();
      if (!verdict.ok()) {
        std::printf("GATE: undecided task (seed %" PRIu64 ", task %zu): %s\n",
                    w->seed, t, verdict.status().ToString().c_str());
        ++undecided;
        continue;
      }
      if (verdict->sigma_class != SigmaClass::kAcyclicInd) {
        std::printf("GATE: task classified %s, expected acyclic-ind\n",
                    std::string(ToString(verdict->sigma_class)).c_str());
        ++wrong_class;
      }
      if (verdict->strategy > DecisionStrategy::kIterativeDeepening) {
        std::printf("GATE: task dispatched to %s — not a decision procedure\n",
                    std::string(ToString(verdict->strategy)).c_str());
        ++wrong_strategy;
      }
      if (verdict->report.contained) ++contained;
      if (planted) {
        ++planted_checked;
        if (!verdict->report.contained) {
          std::printf("GATE: planted super-query came back not-contained "
                      "(seed %" PRIu64 ", task %zu)\n",
                      w->seed, t);
          ++planted_missed;
        }
      }
    }
  }

  std::vector<std::pair<std::string, double>> counters;
  counters.emplace_back("workloads", static_cast<double>(kWorkloads));
  counters.emplace_back("tasks", static_cast<double>(tasks));
  counters.emplace_back("undecided", static_cast<double>(undecided));
  counters.emplace_back("contained", static_cast<double>(contained));
  counters.emplace_back("planted_checked",
                        static_cast<double>(planted_checked));
  counters.emplace_back("planted_missed",
                        static_cast<double>(planted_missed));
  counters.emplace_back("fingerprint", FingerprintCounter(fingerprint_xor));
  PrintJsonRecord("reliance_acyclic_gate", total_ms, counters);

  std::printf(
      "acyclic gate: %zu tasks over %zu workloads | %zu contained (%zu "
      "planted, %zu missed) | %zu undecided | %.3f ms total\n",
      tasks, kWorkloads, contained, planted_checked, planted_missed,
      undecided, total_ms);

  bool ok = true;
  if (undecided != 0) {
    std::printf("GATE FAILED: %zu undecided with allow_semidecision=false\n",
                undecided);
    ok = false;
  }
  if (wrong_class != 0 || wrong_strategy != 0) {
    std::printf("GATE FAILED: %zu off-class, %zu off-strategy tasks\n",
                wrong_class, wrong_strategy);
    ok = false;
  }
  if (planted_missed != 0) {
    std::printf("GATE FAILED: %zu planted containments missed\n",
                planted_missed);
    ok = false;
  }
  if (planted_checked == 0) {
    std::printf("GATE FAILED: no planted super-query generated — the "
                "contained half of the gate never ran\n");
    ok = false;
  }
  if (ok) {
    std::printf("gate ok: every acyclic FD+IND task decided without "
                "semi-decision permission\n");
  }
  return ok;
}

}  // namespace
}  // namespace cqchase

int main() {
  cqchase::bench::PrintHeader(
      "bench_reliance",
      "the static reliance analysis is cheap relative to the chase it "
      "precedes, and its acyclic-IND fragment is decidable — no "
      "semi-decision escape hatch needed beyond the paper's classes");

  cqchase::RunAnalysisCost();
  std::printf("\n");
  if (!cqchase::RunDecidabilityGate()) {
    std::printf("\nbench_reliance: FAILED\n");
    return 1;
  }
  std::printf("\nbench_reliance: OK\n");
  return 0;
}
