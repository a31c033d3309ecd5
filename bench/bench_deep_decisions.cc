// Deep Theorem 1 decisions through ContainmentEngine::Check, pinned to one
// CPU: what one iterative-deepening level costs, per level and per minted
// conjunct, in time and in heap allocations.
//
// The tasks are cold_mixed-shaped (perfbench's schema R(a,b), S(a,b,c),
// T(a,b), U(a,b,c)) and every one of them is decided by the
// iterative-deepening chase over 20..64 levels:
//
//   cycle     the cyclic width-1 IND chain R[2] <= S[1], S[3] <= T[1],
//             T[2] <= U[1], U[3] <= R[1] (one minted conjunct per level),
//             with Q' a chain along it that is contained (witness at level
//             24, 40 or 56), or one that asks for a self-loop T(z, z) the
//             chase never holds (not contained; Lemma 5 bound 24 or 32);
//   keyed     the same cycle made key-based (column 1 keys every
//             relation), so every level also runs the FD phase (its
//             not-contained task has the Lemma 5 bound 60);
//   generated random width-1 one-out cyclic and key-based Σ with random and
//             planted Q' (the cold_mixed generator's shapes), kept only when
//             the decision reaches 20..64 chase levels.
//
// Minted conjuncts are counted as the prefix's alive conjuncts beyond Q's
// own. Allocations are counted by this binary's replacement of the global
// operator new, only inside the timed Check calls; the count is a pure
// function of the inputs (no thread, clock or address feeds it), so it is
// the same on every run and host. `--max-allocs-per-conjunct N` exits
// non-zero when the measured count per minted conjunct exceeds N. The run
// also reports bench_certificates' 32-hop certificate build time (median of
// five). Only the public engine API is used, so the same file builds
// against older trees to compare them.
//
//   $ ./build/bench_deep_decisions [--rounds N] [--max-allocs-per-conjunct N]
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/certificate.h"
#include "cq/cq_parser.h"
#include "deps/deps_parser.h"
#include "engine/engine.h"
#include "engine/sigma_class.h"

namespace {

// Relaxed: the timed calls run inline on the main thread; the counter only
// has to see them.
std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace cqchase;

namespace {

struct DeepTask {
  std::string family;
  ConjunctiveQuery q;
  ConjunctiveQuery q_prime;
  const DependencySet* deps;
};

ConjunctiveQuery MustParse(const Catalog& catalog, SymbolTable& symbols,
                           const std::string& text) {
  Result<ConjunctiveQuery> q = ParseQuery(catalog, symbols, text);
  if (!q.ok()) {
    std::fprintf(stderr, "bad query %s: %s\n", text.c_str(),
                 q.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(q);
}

DependencySet MustParseDeps(const Catalog& catalog, const char* text) {
  Result<DependencySet> deps = ParseDependencies(catalog, text);
  if (!deps.ok()) {
    std::fprintf(stderr, "bad Σ %s: %s\n", text,
                 deps.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(deps);
}

// Q' walking `hops` conjuncts along the R -> S -> T -> U cycle from the
// summary variable; `tail` is appended verbatim.
std::string CycleChain(const std::string& tag, size_t hops,
                       const std::string& tail) {
  std::string text = "ans(x) :- ";
  std::string prev = "x";
  for (size_t i = 0; i < hops; ++i) {
    const std::string cur = StrCat(tag, i);
    const std::string pad = StrCat(tag, "p", i);
    if (i > 0) text += ", ";
    switch (i % 4) {
      case 0: text += StrCat("R(", prev, ", ", cur, ")"); break;
      case 1: text += StrCat("S(", prev, ", ", pad, ", ", cur, ")"); break;
      case 2: text += StrCat("T(", prev, ", ", cur, ")"); break;
      default: text += StrCat("U(", prev, ", ", pad, ", ", cur, ")"); break;
    }
    prev = cur;
  }
  return text + tail;
}

// Width-1 INDs with pairwise distinct lhs relations (cold_mixed's one-out
// shape: at most one IND fires per fact).
DependencySet OneOutInds(Rng& rng, const Catalog& catalog) {
  std::vector<RelationId> lhs(catalog.num_relations());
  std::iota(lhs.begin(), lhs.end(), 0);
  std::shuffle(lhs.begin(), lhs.end(), rng.engine());
  lhs.resize(2 + rng.Index(3));
  DependencySet deps;
  for (RelationId l : lhs) {
    InclusionDependency ind;
    ind.lhs_relation = l;
    ind.rhs_relation =
        static_cast<RelationId>(rng.Index(catalog.num_relations()));
    ind.lhs_columns = {static_cast<uint32_t>(rng.Index(catalog.arity(l)))};
    ind.rhs_columns = {
        static_cast<uint32_t>(rng.Index(catalog.arity(ind.rhs_relation)))};
    if (ind.lhs_relation == ind.rhs_relation &&
        ind.lhs_columns == ind.rhs_columns) {
      continue;
    }
    (void)deps.AddInd(catalog, ind);
  }
  return deps;
}

bool OneOut(const DependencySet& deps) {
  std::vector<RelationId> lhs;
  for (const InclusionDependency& ind : deps.inds()) {
    lhs.push_back(ind.lhs_relation);
  }
  std::sort(lhs.begin(), lhs.end());
  return std::adjacent_find(lhs.begin(), lhs.end()) == lhs.end();
}

DependencySet SigmaOf(Rng& rng, const Catalog& catalog, SigmaClass want) {
  for (;;) {
    DependencySet deps;
    if (want == SigmaClass::kIndOnlyW1) {
      deps = OneOutInds(rng, catalog);
    } else {
      RandomKeyBasedParams p;
      p.key_size = 1;
      p.num_inds = 1 + rng.Index(2);
      deps = RandomKeyBasedDeps(rng, catalog, p);
    }
    if (OneOut(deps) && AnalyzeSigma(deps, catalog).sigma_class == want) {
      return deps;
    }
  }
}

struct Totals {
  uint64_t decisions = 0;
  uint64_t levels = 0;
  uint64_t minted = 0;
  uint64_t allocations = 0;
  uint64_t contained = 0;
  double us = 0.0;
};

// One pass: every task decided once, timed and counted. The engine has no
// cache, so each Check decides from scratch.
Totals RunPass(ContainmentEngine& engine, const std::vector<DeepTask>& tasks,
               const std::string& family) {
  Totals t;
  for (const DeepTask& task : tasks) {
    if (!family.empty() && task.family != family) continue;
    const uint64_t allocs_before = g_allocations.load();
    const auto start = std::chrono::steady_clock::now();
    Result<EngineVerdict> v = engine.Check(task.q, task.q_prime, *task.deps);
    t.us += std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - start)
                .count();
    t.allocations += g_allocations.load() - allocs_before;
    if (!v.ok()) {
      std::fprintf(stderr, "decision failed: %s\n",
                   v.status().ToString().c_str());
      std::exit(1);
    }
    ++t.decisions;
    t.contained += v->report.contained ? 1 : 0;
    t.levels += v->report.chase_levels;
    const size_t own = task.q.conjuncts().size();
    t.minted += v->report.chase_conjuncts > own
                    ? v->report.chase_conjuncts - own
                    : 0;
  }
  return t;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  int rounds = 9;
  double max_allocs = -1.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--rounds") == 0) {
      rounds = std::max(1, std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--max-allocs-per-conjunct") == 0) {
      max_allocs = std::atof(argv[i + 1]);
    }
  }
  int cpu = sched_getcpu();
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) cpu = -1;

  Catalog catalog;
  (void)catalog.AddRelation("R", {"a", "b"});
  (void)catalog.AddRelation("S", {"a", "b", "c"});
  (void)catalog.AddRelation("T", {"a", "b"});
  (void)catalog.AddRelation("U", {"a", "b", "c"});
  SymbolTable symbols;

  const DependencySet cycle = MustParseDeps(
      catalog, "R[2] <= S[1]\nS[3] <= T[1]\nT[2] <= U[1]\nU[3] <= R[1]");
  const DependencySet keyed = MustParseDeps(
      catalog,
      "R: 1 -> 2\nS: 1 -> 2\nS: 1 -> 3\nT: 1 -> 2\nU: 1 -> 2\nU: 1 -> 3\n"
      "R[2] <= S[1]\nS[3] <= T[1]\nT[2] <= U[1]\nU[3] <= R[1]");

  std::vector<DeepTask> tasks;
  const auto add = [&](const char* family, const char* q,
                       const std::string& q_prime, const DependencySet& deps) {
    tasks.push_back({family, MustParse(catalog, symbols, q),
                     MustParse(catalog, symbols, q_prime), &deps});
  };
  for (const DependencySet* deps : {&cycle, &keyed}) {
    const char* family = deps == &cycle ? "cycle" : "keyed";
    for (size_t hops : {25, 41, 57}) {
      add(family, "ans(x) :- R(x, y)", CycleChain("h", hops, ""), *deps);
    }
    add(family, "ans(x) :- R(x, y)", CycleChain("n", 2, ", T(z, z)"), *deps);
  }
  add("cycle", "ans(x) :- R(x, y), T(u, v)", CycleChain("m", 3, ", T(z, z)"),
      cycle);

  // Generated cold_mixed shapes, kept when deep. The selection runs on its
  // own engine; the verdicts and levels it reads are the same on every
  // tree (the chase prefix is pinned), so every tree times the same tasks.
  EngineConfig config;
  config.enable_cache = false;
  std::vector<DependencySet> generated_sigmas;
  generated_sigmas.reserve(64);
  {
    ContainmentEngine selector(&catalog, &symbols, config);
    Rng rng(30);
    size_t kept = 0;
    for (size_t s = 0; s < 64 && kept < 48; ++s) {
      const SigmaClass cls =
          s % 2 == 0 ? SigmaClass::kIndOnlyW1 : SigmaClass::kKeyBased;
      generated_sigmas.push_back(SigmaOf(rng, catalog, cls));
      const DependencySet& deps = generated_sigmas.back();
      for (size_t i = 0; i < 8; ++i) {
        RandomQueryParams qp;
        qp.num_conjuncts = 4;
        qp.num_vars = 4;
        qp.name_prefix = StrCat("g", s, "_", i, "q");
        ConjunctiveQuery q = RandomQuery(rng, catalog, symbols, qp);
        std::optional<ConjunctiveQuery> q_prime;
        if (i % 2 == 0) {
          Result<ConjunctiveQuery> planted =
              PlantedSuperQuery(rng, q, deps, symbols, 2, 2);
          if (planted.ok()) q_prime = *std::move(planted);
        }
        if (!q_prime.has_value()) {
          RandomQueryParams rp;
          rp.num_conjuncts = 2;
          rp.num_vars = 3;
          rp.name_prefix = StrCat("g", s, "_", i, "p");
          q_prime = RandomQuery(rng, catalog, symbols, rp);
        }
        Result<EngineVerdict> v = selector.Check(q, *q_prime, deps);
        if (!v.ok() ||
            v->strategy != DecisionStrategy::kIterativeDeepening ||
            v->report.chase_levels < 20 || v->report.chase_levels > 64) {
          continue;
        }
        tasks.push_back({"generated", std::move(q), *std::move(q_prime),
                         &deps});
        ++kept;
      }
    }
  }

  ContainmentEngine engine(&catalog, &symbols, config);
  for (const DeepTask& task : tasks) {
    Result<EngineVerdict> v = engine.Check(task.q, task.q_prime, *task.deps);
    if (!v.ok() || v->strategy != DecisionStrategy::kIterativeDeepening) {
      std::fprintf(stderr, "task is not a deep decision: %s\n",
                   task.q_prime.ToString().c_str());
      return 1;
    }
  }

  std::printf("deep decisions on cpu %d, %d rounds (median round)\n", cpu,
              rounds);
  std::printf("%-10s %6s %6s %8s %8s %10s %12s %12s\n", "family", "tasks",
              "cont", "levels", "minted", "us/level", "us/minted",
              "allocs/mint");
  std::vector<std::pair<std::string, double>> counters;
  double gated_allocs = 0.0;
  for (const char* family : {"cycle", "keyed", "generated", ""}) {
    const std::string name = *family == '\0' ? "all" : family;
    std::vector<Totals> passes;
    for (int r = 0; r < rounds; ++r) {
      passes.push_back(RunPass(engine, tasks, family));
    }
    std::sort(passes.begin(), passes.end(),
              [](const Totals& a, const Totals& b) { return a.us < b.us; });
    const Totals& t = passes[passes.size() / 2];
    const double us_level = Ratio(t.us, static_cast<double>(t.levels));
    const double us_minted = Ratio(t.us, static_cast<double>(t.minted));
    const double allocs_minted = Ratio(static_cast<double>(t.allocations),
                                       static_cast<double>(t.minted));
    std::printf("%-10s %6llu %6llu %8.1f %8.1f %10.3f %12.3f %12.2f\n",
                name.c_str(), static_cast<unsigned long long>(t.decisions),
                static_cast<unsigned long long>(t.contained),
                Ratio(static_cast<double>(t.levels),
                      static_cast<double>(t.decisions)),
                Ratio(static_cast<double>(t.minted),
                      static_cast<double>(t.decisions)),
                us_level, us_minted, allocs_minted);
    counters.emplace_back(name + "_tasks", static_cast<double>(t.decisions));
    counters.emplace_back(name + "_us_per_decision",
                          Ratio(t.us, static_cast<double>(t.decisions)));
    counters.emplace_back(name + "_us_per_level", us_level);
    counters.emplace_back(name + "_us_per_minted", us_minted);
    counters.emplace_back(name + "_allocs_per_minted", allocs_minted);
    if (name == "all") gated_allocs = allocs_minted;
  }

  // bench_certificates' 32-hop chain build (ROADMAP item 14's gate),
  // report-only here.
  double cert_ms = 0.0;
  {
    Catalog chain_catalog;
    (void)chain_catalog.AddRelation("R", {"a", "b"});
    SymbolTable chain_symbols;
    const DependencySet chain = MustParseDeps(chain_catalog, "R[2] <= R[1]");
    const ConjunctiveQuery q =
        MustParse(chain_catalog, chain_symbols, "ans(x) :- R(x, y)");
    std::string text = "ans(x) :- ";
    std::string prev = "x";
    for (size_t i = 1; i <= 32; ++i) {
      if (i > 1) text += ", ";
      const std::string cur = StrCat("a", i);
      text += StrCat("R(", prev, ", ", cur, ")");
      prev = cur;
    }
    const ConjunctiveQuery q_prime =
        MustParse(chain_catalog, chain_symbols, text);
    ContainmentOptions options;
    options.limits.max_level = 34;
    std::vector<double> ms;
    for (int r = 0; r < 5; ++r) {
      bench::WallTimer timer;
      Result<std::optional<ContainmentCertificate>> cert =
          BuildCertificate(q, q_prime, chain, chain_symbols, options);
      ms.push_back(timer.ElapsedMs());
      if (!cert.ok() || !cert->has_value()) {
        std::fprintf(stderr, "32-hop certificate build failed\n");
        return 1;
      }
    }
    std::sort(ms.begin(), ms.end());
    cert_ms = ms[ms.size() / 2];
  }
  std::printf("32-hop certificate build: %.3f ms (median of 5)\n", cert_ms);
  counters.emplace_back("cert32_build_ms", cert_ms);
  counters.emplace_back("cpu", cpu);
  bench::PrintJsonRecord("deep_decisions", 0.0, counters);

  if (max_allocs >= 0.0 && gated_allocs > max_allocs) {
    std::printf("FAIL: %.2f allocations per minted conjunct exceed %.2f\n",
                gated_allocs, max_allocs);
    return 1;
  }
  return 0;
}
