// Persistent verdict store: the engine's second cache tier survives process
// restarts. Run this binary twice with the same store directory:
//
//   $ ./build/persistent_store_demo /tmp/cq-verdicts
//   $ ./build/persistent_store_demo /tmp/cq-verdicts   # warm: zero chases
//
// The first run decides its containment questions by chasing and persists
// every verdict (write-behind log, compacted into a snapshot on shutdown).
// The second run — a fresh process with cold in-memory caches — answers the
// identical questions from the store without building a single chase, which
// is exactly what a restarting fleet node wants.
#include <cstdio>

#include "cq/cq_parser.h"
#include "deps/deps_parser.h"
#include "engine/engine.h"
#include "schema/catalog.h"
#include "symbols/symbol_table.h"

using namespace cqchase;

int main(int argc, char** argv) {
  const char* store_dir = argc > 1 ? argv[1] : "verdict-store-demo";

  Catalog catalog;
  if (!catalog.AddRelation("EMP", {"eno", "sal", "dept"}).ok() ||
      !catalog.AddRelation("DEP", {"dept", "loc"}).ok()) {
    std::printf("schema error\n");
    return 1;
  }
  Result<DependencySet> deps =
      ParseDependencies(catalog, "EMP[dept] <= DEP[dept]");
  SymbolTable symbols;
  Result<ConjunctiveQuery> q1 =
      ParseQuery(catalog, symbols, "ans(e) :- EMP(e, s, d), DEP(d, l)");
  Result<ConjunctiveQuery> q2 =
      ParseQuery(catalog, symbols, "ans(e) :- EMP(e, s, d)");
  if (!deps.ok() || !q1.ok() || !q2.ok()) {
    std::printf("parse error\n");
    return 1;
  }

  // The only change from a store-less engine: a local-store tier behind the
  // in-memory LRU.
  EngineConfig config;
  config.tiers = {TierSpec::Lru(config.verdict_cache_capacity),
                  TierSpec::LocalStore(store_dir)};
  ContainmentEngine engine(&catalog, &symbols, config);
  if (engine.store() == nullptr) {
    std::printf("store did not open: %s\n",
                engine.store_status().ToString().c_str());
    return 1;
  }
  const VerdictStoreStats opened = engine.store()->stats();
  std::printf("store %s: %llu entries restored (%llu snapshot, %llu log)\n",
              store_dir, static_cast<unsigned long long>(opened.entries),
              static_cast<unsigned long long>(opened.snapshot_entries_loaded),
              static_cast<unsigned long long>(opened.log_entries_replayed));

  for (auto [name, from, to] : {std::tuple{"Q1 <= Q2", &*q1, &*q2},
                                std::tuple{"Q2 <= Q1", &*q2, &*q1}}) {
    Result<EngineVerdict> v = engine.Check(*from, *to, *deps);
    if (!v.ok()) {
      std::printf("containment error: %s\n", v.status().ToString().c_str());
      return 1;
    }
    std::printf("%s: %-3s  (%s)\n", name, v->report.contained ? "yes" : "no",
                v->store_hit       ? "served from persistent store"
                : v->cache_hit     ? "served from in-memory cache"
                                   : "decided by chasing");
  }

  const EngineStats stats = engine.stats();
  std::printf("\nthis run: %llu chases built, %llu store hits, %llu store "
              "writes\n",
              static_cast<unsigned long long>(stats.chases_built),
              static_cast<unsigned long long>(stats.store_hits),
              static_cast<unsigned long long>(stats.store_writes));
  if (opened.entries > 0 && stats.chases_built == 0) {
    std::printf("warm start: every verdict came from the store — no chase "
                "was ever built\n");
  } else {
    std::printf("cold start: verdicts persisted; run again to see the warm "
                "start\n");
  }
  return 0;  // engine destruction flushes the log and compacts the snapshot
}
