// E-SCHEMA-EVOLUTION — Σ-lineage verdict survival: a one-dependency edit on
// a warm wide-Σ engine must invalidate O(touched), not O(everything), and
// every surviving verdict must equal what a fresh engine decides.
//
// Workload: kChains independent IND chains A_c[x] ⊆ B_c[x], B_c[x] ⊆ C_c[x]
// (~2·kChains INDs in one Σ), with two tasks per chain — one contained
// (provable only through that chain's two INDs) and one not-contained. The
// chains share nothing, so a single-IND edit has a touched closure of
// exactly one chain's tasks; everything else must survive via lineage.
//
// Phases (each phase's verdicts are checked against a fresh store-less
// oracle engine, so a wrong surviving verdict can never pass):
//   1. warm   — decide all tasks under the full Σ (populates LRU + store)
//   2. remove — drop one chain's B→C IND, EvolveSigma, re-ask everything:
//               chases_built may grow only by the touched closure (the one
//               task whose chase fired the removed IND), entries survive
//               exactly (lineage proves the removal never fired for them)
//   3. re-add — restore the IND, EvolveSigma, re-ask everything: contained
//               survivors are kept at monotone-bound confidence and must be
//               served as hits (monotone_hits > 0), not-contained entries
//               are genuinely touched by an addition and re-decide
//
// Exits non-zero when any phase's verdicts diverge from its oracle, when
// phase 2 rebuilds more chases than the touched closure, when no entries
// were retagged, or when phase 3 serves no monotone hits.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "bench/bench_util.h"
#include "cq/cq_parser.h"
#include "engine/engine.h"
#include "engine/lineage.h"

namespace cqchase {
namespace {

constexpr size_t kChains = 150;  // 2 INDs each → a ~300-IND Σ
// Touched closure of the phase-2 edit: the edited chain's contained task is
// the only verdict whose deciding chase fired the removed IND. Headroom
// covers strategy-internal probe chases, not a second invalidated class.
constexpr uint64_t kTouchedChaseBound = 8;

struct Workload {
  Catalog catalog;
  SymbolTable symbols;
  DependencySet full;     // both INDs of every chain
  DependencySet edited;   // full minus chain 0's B->C IND
  std::vector<ConjunctiveQuery> lhs;
  std::vector<ConjunctiveQuery> rhs;
  std::vector<bool> planted;  // expected verdict under the full Σ
};

Workload Build() {
  Workload w;
  std::vector<RelationId> a(kChains), b(kChains), c(kChains);
  for (size_t i = 0; i < kChains; ++i) {
    a[i] = *w.catalog.AddRelation(StrCat("A", i), {"x", "y"});
    b[i] = *w.catalog.AddRelation(StrCat("B", i), {"x", "y"});
    c[i] = *w.catalog.AddRelation(StrCat("C", i), {"x", "y"});
  }
  for (size_t i = 0; i < kChains; ++i) {
    InclusionDependency ab{a[i], {0}, b[i], {0}};
    InclusionDependency bc{b[i], {0}, c[i], {0}};
    (void)w.full.AddInd(w.catalog, ab);
    (void)w.full.AddInd(w.catalog, bc);
    (void)w.edited.AddInd(w.catalog, ab);
    if (i != 0) (void)w.edited.AddInd(w.catalog, bc);
  }
  for (size_t i = 0; i < kChains; ++i) {
    // Contained: chasing A_i(x,y) fires A->B then B->C, so C_i(x,*) exists
    // iff both chain INDs are present. Two conjuncts keep the task off the
    // single-conjunct streaming route even in default configs.
    w.lhs.push_back(*ParseQuery(w.catalog, w.symbols,
                                StrCat("ans(x) :- A", i, "(x, y)")));
    w.rhs.push_back(*ParseQuery(w.catalog, w.symbols,
                                StrCat("ans(x) :- C", i, "(x, z)")));
    w.planted.push_back(true);
    // Not contained: no IND leaves C_i, so the chase of C_i(x,y) never
    // derives an A_i fact.
    w.lhs.push_back(*ParseQuery(w.catalog, w.symbols,
                                StrCat("ans(x) :- C", i, "(x, y)")));
    w.rhs.push_back(*ParseQuery(w.catalog, w.symbols,
                                StrCat("ans(x) :- A", i, "(x, z)")));
    w.planted.push_back(false);
  }
  return w;
}

// Re-decides every task on a fresh store-less engine and counts divergence
// from `got` — the oracle that makes "survived" mean "still correct".
size_t OracleMismatches(Workload& w, const DependencySet& deps,
                        const std::vector<Result<EngineVerdict>>& got,
                        size_t* errors) {
  ContainmentEngine oracle(&w.catalog, &w.symbols, EngineConfig{});
  std::vector<Result<EngineVerdict>> truth =
      bench::DecideAll(oracle, w.lhs, w.rhs, deps);
  size_t mismatches = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (!truth[i].ok() || !got[i].ok()) {
      ++*errors;
      continue;
    }
    if (truth[i]->report.contained != got[i]->report.contained) ++mismatches;
  }
  return mismatches;
}

}  // namespace
}  // namespace cqchase

int main(int argc, char** argv) {
  using namespace cqchase;
  const std::string store_dir =
      argc > 1 ? argv[1] : "schema-evolution-store";

  bench::PrintHeader(
      "E-SCHEMA-EVOLUTION / Σ-lineage verdict survival",
      "a 1-IND edit on a warm ~300-IND Σ invalidates O(touched) verdicts, "
      "survivors (exact and monotone-bound) match a fresh-engine oracle");

  Workload w = Build();
  std::printf("Σ: %zu INDs across %zu chains, %zu tasks\n\n", w.full.size(),
              kChains, w.lhs.size());

  EngineConfig config;
  config.tiers = {TierSpec::Lru(config.verdict_cache_capacity),
                  TierSpec::LocalStore(store_dir)};
  // Chase-free strategies leave lineage unknown (sound but drop-only); the
  // bench measures the chase's used-dependency capture, so route everything
  // through the chase.
  config.route_streaming_single_conjunct = false;
  ContainmentEngine engine(&w.catalog, &w.symbols, config);
  if (engine.store() == nullptr) {
    std::fprintf(stderr, "FAIL: store did not open: %s\n",
                 engine.store_status().ToString().c_str());
    return 1;
  }

  size_t errors = 0;
  bench::WallTimer total_timer;

  // Phase 1: warm the engine (LRU + store) under the full Σ.
  std::vector<Result<EngineVerdict>> warm =
      bench::DecideAll(engine, w.lhs, w.rhs, w.full);
  const uint64_t chases_warm = engine.stats().chases_built;
  const size_t warm_bad = OracleMismatches(w, w.full, warm, &errors);
  std::printf("phase 1 (warm):   %llu chases, %zu mismatches\n",
              static_cast<unsigned long long>(chases_warm), warm_bad);

  // Phase 2: remove chain 0's B->C IND. Only chain 0's contained task fired
  // it; everything else must survive exactly and re-answer without a chase.
  const DeltaReceipt removal = engine.EvolveSigma(w.full, w.edited);
  std::vector<Result<EngineVerdict>> after_rm =
      bench::DecideAll(engine, w.lhs, w.rhs, w.edited);
  const uint64_t chases_rm = engine.stats().chases_built - chases_warm;
  const size_t rm_bad = OracleMismatches(w, w.edited, after_rm, &errors);
  std::printf(
      "phase 2 (remove): receipt examined=%llu exact=%llu monotone=%llu "
      "dropped=%llu; %llu chases rebuilt, %zu mismatches\n",
      static_cast<unsigned long long>(removal.examined),
      static_cast<unsigned long long>(removal.kept_exact),
      static_cast<unsigned long long>(removal.kept_monotone),
      static_cast<unsigned long long>(removal.dropped),
      static_cast<unsigned long long>(chases_rm), rm_bad);

  // Phase 3: add the IND back. Contained survivors are kept monotone (the
  // chase only grows) and must be served as hits; not-contained entries are
  // genuinely touched by an addition and re-decide.
  const uint64_t monotone_before = engine.stats().monotone_hits;
  const DeltaReceipt addback = engine.EvolveSigma(w.edited, w.full);
  std::vector<Result<EngineVerdict>> after_add =
      bench::DecideAll(engine, w.lhs, w.rhs, w.full);
  const uint64_t monotone_hits =
      engine.stats().monotone_hits - monotone_before;
  const size_t add_bad = OracleMismatches(w, w.full, after_add, &errors);
  std::printf(
      "phase 3 (re-add): receipt exact=%llu monotone=%llu dropped=%llu; "
      "%llu monotone hits, %zu mismatches\n",
      static_cast<unsigned long long>(addback.kept_exact),
      static_cast<unsigned long long>(addback.kept_monotone),
      static_cast<unsigned long long>(addback.dropped),
      static_cast<unsigned long long>(monotone_hits), add_bad);

  const double total_ms = total_timer.ElapsedMs();
  const EngineStats stats = engine.stats();
  std::printf("\n");

  std::vector<std::pair<std::string, double>> counters = {
      {"tasks", static_cast<double>(w.lhs.size())},
      {"sigma_inds", static_cast<double>(w.full.size())},
      {"chases_warm", static_cast<double>(chases_warm)},
      {"chases_after_removal", static_cast<double>(chases_rm)},
      {"removal_kept_exact", static_cast<double>(removal.kept_exact)},
      {"removal_dropped", static_cast<double>(removal.dropped)},
      {"addback_kept_monotone", static_cast<double>(addback.kept_monotone)},
      {"addback_dropped", static_cast<double>(addback.dropped)},
      {"monotone_hits_served", static_cast<double>(monotone_hits)},
      {"mismatches", static_cast<double>(warm_bad + rm_bad + add_bad)},
      {"errors", static_cast<double>(errors)}};
  bench::AppendEngineCounters(stats, counters);
  bench::AppendEngineConfig(config, counters);
  bench::PrintJsonRecord("schema_evolution", total_ms, counters);

  if (warm_bad + rm_bad + add_bad > 0 || errors > 0) {
    std::fprintf(stderr,
                 "FAIL: post-edit verdicts diverge from a fresh engine\n");
    return 1;
  }
  if (chases_rm > kTouchedChaseBound) {
    std::fprintf(stderr,
                 "FAIL: 1-IND removal rebuilt %llu chases (touched closure "
                 "allows %llu): survival is not O(touched)\n",
                 static_cast<unsigned long long>(chases_rm),
                 static_cast<unsigned long long>(kTouchedChaseBound));
    return 1;
  }
  if (chases_rm == 0) {
    std::fprintf(stderr,
                 "FAIL: the invalidated verdict was never re-decided\n");
    return 1;
  }
  if (removal.retagged() == 0 || stats.entries_retagged == 0) {
    std::fprintf(stderr, "FAIL: no entries survived the removal via retag\n");
    return 1;
  }
  if (addback.kept_monotone == 0 || monotone_hits == 0) {
    std::fprintf(stderr,
                 "FAIL: no monotone-bound survivors were kept/served after "
                 "the addition\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
