// Microbench of CanonicalTaskKey alone (engine/canonical.h), pinned to one
// CPU: the median time per key over rounds, for three task sets.
//
//   probe     three hand-written tasks of |Q|+|Q'| = 3, 7 and 7 conjuncts
//             (the quickstart task, EMP/DEP joins with a constant, and a
//             4-cycle against a triangle), each timed on its own;
//   fleet     fleet_rw-shaped random tasks: Q has 5 conjuncts over 6 NDVs
//             and one DV; Q' is 2 random conjuncts or a planted super-query
//             under the IND chain R -> S -> T -> U;
//   symmetric a star of 8 spokes, 64 disjoint edges, and 24 disjoint
//             2-cycles (a shape whose tie search exceeds its budget and
//             falls back).
//
// Σ is rendered once per set, as the engine does per request. The bench
// calls only the public CanonicalTaskKey, so the same file builds against
// older trees to time them side by side; the fallback count is printed
// only where the library reports it.
//
//   $ ./build/bench_canonical_key [rounds]
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "cq/cq_parser.h"
#include "deps/deps_parser.h"
#include "engine/canonical.h"

using namespace cqchase;

namespace {

struct KeyTask {
  ConjunctiveQuery q;
  ConjunctiveQuery q_prime;
};

struct TaskSet {
  std::string name;
  std::string sigma_key;
  std::vector<KeyTask> tasks;
};

// Fallbacks over the set, through the out-parameter where the library has
// one (the int overload wins); -1 where it does not.
template <typename Counter>
auto CountFallbacks(const TaskSet& set, Counter* count, int)
    -> decltype(CanonicalTaskKey(set.tasks[0].q, set.tasks[0].q_prime,
                                 set.sigma_key, ChaseVariant::kRequired,
                                 count),
                int64_t()) {
  for (const KeyTask& t : set.tasks) {
    CanonicalTaskKey(t.q, t.q_prime, set.sigma_key, ChaseVariant::kRequired,
                     count);
  }
  return static_cast<int64_t>(*count);
}
template <typename Counter>
int64_t CountFallbacks(const TaskSet&, Counter*, long) {
  return -1;
}

// Keeps the timed calls observable.
size_t g_sink = 0;

double PassUs(const TaskSet& set, size_t reps) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t r = 0; r < reps; ++r) {
    for (const KeyTask& t : set.tasks) {
      g_sink += CanonicalTaskKey(t.q, t.q_prime, set.sigma_key,
                                 ChaseVariant::kRequired)
                    .size();
    }
  }
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Median over `rounds` of the mean µs per key; each round runs the set
// enough times to take about 2 ms.
double MedianKeyUs(const TaskSet& set, int rounds) {
  PassUs(set, 1);  // warm the thread's buffers
  const size_t reps =
      std::max<size_t>(1, static_cast<size_t>(2000.0 / PassUs(set, 1)));
  std::vector<double> per_key;
  for (int r = 0; r < rounds; ++r) {
    per_key.push_back(PassUs(set, reps) /
                      static_cast<double>(reps * set.tasks.size()));
  }
  std::sort(per_key.begin(), per_key.end());
  return per_key[per_key.size() / 2];
}

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

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::max(1, std::atoi(argv[1])) : 31;
  int cpu = sched_getcpu();
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) cpu = -1;

  Catalog catalog;
  (void)catalog.AddRelation("EMP", {"eno", "sal", "dept"});
  (void)catalog.AddRelation("DEP", {"dept", "loc"});
  const RelationId r = *catalog.AddRelation("R", {"a", "b"});
  (void)catalog.AddRelation("S", {"a", "b", "c"});
  (void)catalog.AddRelation("T", {"a", "b"});
  (void)catalog.AddRelation("U", {"a", "b", "c"});
  SymbolTable symbols;
  const auto parse = [&](const char* text) {
    return MustParse(catalog, symbols, text);
  };

  std::vector<TaskSet> sets;
  const std::string emp_dep =
      CanonicalSigmaKey(*ParseDependencies(catalog, "EMP[dept] <= DEP[dept]"));
  sets.push_back({"probe3", emp_dep, {}});
  sets.back().tasks.push_back({parse("ans(e) :- EMP(e, s, d), DEP(d, l)"),
                               parse("ans(e) :- EMP(e, s, d)")});
  sets.push_back({"probe7a", emp_dep, {}});
  sets.back().tasks.push_back(
      {parse("ans(e) :- EMP(e, s, d), DEP(d, l), EMP(m, s, d), "
             "DEP(d, 'nyc'), EMP(e, t, x)"),
       parse("ans(e) :- EMP(e, s, d), DEP(d, 'nyc')")});
  sets.push_back({"probe7b", emp_dep, {}});
  sets.back().tasks.push_back(
      {parse("ans(a) :- R(a, b), R(b, c), R(c, d), R(d, a)"),
       parse("ans(x) :- R(x, y), R(y, z), R(z, x)")});

  // fleet_rw's Σ and task shapes (perfbench/inputs.cc GenerateFleet).
  DependencySet chain =
      *ParseDependencies(catalog, "R[1] <= S[1]\nS[2] <= T[1]\nT[2] <= U[1]");
  sets.push_back({"fleet", CanonicalSigmaKey(chain), {}});
  Rng rng(13);
  for (size_t i = 0; i < 256; ++i) {
    RandomQueryParams qp;
    qp.num_conjuncts = 5;
    qp.num_vars = 6;
    qp.name_prefix = StrCat("f", i, "q");
    ConjunctiveQuery q = RandomQuery(rng, catalog, symbols, qp);
    std::optional<ConjunctiveQuery> q_prime;
    if (i % 2 == 1) {
      Result<ConjunctiveQuery> planted =
          PlantedSuperQuery(rng, q, chain, symbols, 2, 2);
      if (planted.ok()) q_prime = *std::move(planted);
    }
    if (!q_prime.has_value()) {
      RandomQueryParams rp;
      rp.num_conjuncts = 2;
      rp.num_vars = 4;
      rp.name_prefix = StrCat("f", i, "p");
      q_prime = RandomQuery(rng, catalog, symbols, rp);
    }
    sets.back().tasks.push_back({std::move(q), *std::move(q_prime)});
  }

  const std::string no_sigma = CanonicalSigmaKey(DependencySet());
  sets.push_back({"star8", no_sigma, {}});
  sets.back().tasks.push_back(
      {parse("ans(x) :- R(x, y1), R(x, y2), R(x, y3), R(x, y4), R(x, y5), "
             "R(x, y6), R(x, y7), R(x, y8)"),
       parse("ans(x) :- R(x, y)")});
  ConjunctiveQuery edges(&catalog, &symbols);
  for (int i = 0; i < 64; ++i) {
    edges.AddConjunct(Fact{r,
                           {symbols.InternNondistVar(StrCat("eu", i)),
                            symbols.InternNondistVar(StrCat("ev", i))}});
  }
  sets.push_back({"edges64", no_sigma, {}});
  sets.back().tasks.push_back({edges, parse("ans() :- R(u, v)")});
  ConjunctiveQuery cycles(&catalog, &symbols);
  for (int i = 0; i < 24; ++i) {
    const Term u = symbols.InternNondistVar(StrCat("cu", i));
    const Term v = symbols.InternNondistVar(StrCat("cv", i));
    cycles.AddConjunct(Fact{r, {u, v}});
    cycles.AddConjunct(Fact{r, {v, u}});
  }
  sets.push_back({"cycles24", no_sigma, {}});
  sets.back().tasks.push_back({cycles, parse("ans() :- R(u, v)")});

  bench::PrintHeader(
      "canonical task keys",
      "isomorphic tasks share one key (Theorem 1's verdict is invariant "
      "under renaming and conjunct order); the cost per key");
  std::printf("cpu %d, %d rounds\n", cpu, rounds);
  std::printf("%-8s %6s %10s %10s %10s\n", "set", "tasks", "key_bytes",
              "median_us", "fallbacks");
  for (const TaskSet& set : sets) {
    const bench::WallTimer timer;
    size_t bytes = 0;
    for (const KeyTask& t : set.tasks) {
      bytes += CanonicalTaskKey(t.q, t.q_prime, set.sigma_key,
                                ChaseVariant::kRequired)
                   .size();
    }
    const double mean_bytes =
        static_cast<double>(bytes) / static_cast<double>(set.tasks.size());
    const double median_us = MedianKeyUs(set, rounds);
    uint64_t fallback_count = 0;
    const int64_t fallbacks = CountFallbacks(set, &fallback_count, 0);
    std::printf("%-8s %6zu %10.1f %10.3f %10lld\n", set.name.c_str(),
                set.tasks.size(), mean_bytes, median_us,
                static_cast<long long>(fallbacks));
    std::vector<std::pair<std::string, double>> counters = {
        {"tasks", static_cast<double>(set.tasks.size())},
        {"key_bytes", mean_bytes},
        {"median_us", median_us}};
    if (fallbacks >= 0) {
      counters.emplace_back("canonical_fallbacks",
                            static_cast<double>(fallbacks));
    }
    bench::PrintJsonRecord(StrCat("canonical_key_", set.name),
                           timer.ElapsedMs(), counters);
  }
  return g_sink == 0 ? 1 : 0;
}
