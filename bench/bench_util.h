// Shared helpers for the experiment binaries. Each bench regenerates one
// artifact of the paper (figure, theorem validation, or complexity-shape
// claim) and prints the series it measures. The recorded end-to-end
// service numbers come from perfbench instead: see perfbench/README.md and
// the workloads and metrics declared in BENCHMARK.json.
#ifndef CQCHASE_BENCH_BENCH_UTIL_H_
#define CQCHASE_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/string_util.h"
#include "engine/engine.h"
#include "gen/generators.h"

namespace cqchase::bench {

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void PrintHeader(const std::string& experiment,
                        const std::string& claim) {
  std::printf("=== %s ===\n", experiment.c_str());
  std::printf("paper claim: %s\n\n", claim.c_str());
}

// Version of the bench JSON record layout. Bumped whenever the record shape
// or the meaning of a shared counter changes, so cross-PR trajectory
// comparisons know which records are commensurable. History:
//   1 — implicit (records before the field existed carry no "schema" key)
//   2 — added the schema field itself + engine cache-capacity knobs via
//       AppendEngineConfig + store_hits/store_writes in AppendEngineCounters
//   3 — verdict tier stack: remote_hits/remote_writes in
//       AppendEngineCounters, per-tier hit/publish counters via
//       AppendTierCounters, tiers_configured in AppendEngineConfig
//   4 — set-at-a-time chase core: chase_steps/chase_index_rebuilds/
//       segments_built/bulk_ind_applications in AppendEngineCounters,
//       chase_core_bulk in AppendEngineConfig
//   5 — Σ reliance analysis: inds_pruned in AppendEngineCounters (bulk-core
//       static pruning), and bench_reliance reports the SigmaGraph
//       fingerprint per workload
//   6 — networked verdict authority: remote tiers additionally report
//       tier<i>_remote_fetch_rtts / _batched_fetches / _reconnects /
//       _transport_errors via AppendTierCounters (wire behavior per tier)
//   7 — parallel chase core: parallel_batches/parallel_serialized_levels in
//       AppendEngineCounters; chase_core_bulk in AppendEngineConfig replaced
//       by chase_core (numeric ChaseCoreMode: 0 scalar, 1 bulk, 2 parallel);
//       bench_chase_parallel reports per-depth layer widths
//   8 — Σ-lineage schema evolution: entries_retagged/entries_dropped/
//       monotone_hits in AppendEngineCounters; bench_schema_evolution
//       reports delta receipts per edit
//   9 — parallel chase core removed: AppendEngineCounters drops
//       parallel_batches/parallel_serialized_levels, chase_core is
//       0 scalar / 1 bulk, and bench_reliance drops its components/
//       frontiers counters
//  10 — semi-naive witness search: witness_searches/witness_searches_skipped
//       in AppendEngineCounters
//  11 — canonical labelling: canonical_fallbacks in AppendEngineCounters
//  12 — chase-prefix cache removed: AppendEngineConfig drops its Σ-cache
//       capacity row (now a fixed engine constant) and its chase-cache
//       capacity row
//  13 — local-tier hits answered on the submitting thread:
//       bench_store_warmstart --warm reports hit_submit_get_p50_us and
//       hit_check_p50_us (store-hit latency through Submit -> Get and
//       through the inline Check; 0 on a cold run)
inline constexpr int kBenchRecordSchema = 13;

// One-line machine-readable record, emitted by every bench so the perf
// trajectory can be scraped (`grep '^{"bench"'` over the run log). Integral
// counters print exactly (no %g exponent rounding, which would hide small
// regressions in large counts); fractional ones keep 6 significant digits.
//
//   {"bench":"engine_cache","schema":2,"wall_ms":12.345,"counters":{...}}
inline void PrintJsonRecord(
    const std::string& name, double wall_ms,
    const std::vector<std::pair<std::string, double>>& counters = {}) {
  std::printf("{\"bench\":\"%s\",\"schema\":%d,\"wall_ms\":%.3f", name.c_str(),
              kBenchRecordSchema, wall_ms);
  if (!counters.empty()) {
    std::printf(",\"counters\":{");
    for (size_t i = 0; i < counters.size(); ++i) {
      std::printf("%s\"%s\":", i == 0 ? "" : ",", counters[i].first.c_str());
      const double v = counters[i].second;
      if (std::nearbyint(v) == v && std::fabs(v) < 9.0e15) {
        std::printf("%lld", static_cast<long long>(v));
      } else {
        std::printf("%.6g", v);
      }
    }
    std::printf("}");
  }
  std::printf("}\n");
}

// Appends the engine's scheduler-health counters to a JSON record's counter
// list, so bench trajectories capture executor behavior (queue pressure,
// steal balance, deadline/cancel traffic) alongside each bench's own
// series. Gauges (queue_depth) read whatever the moment shows; benches
// should snapshot stats() after their waits complete.
inline void AppendEngineCounters(
    const EngineStats& stats,
    std::vector<std::pair<std::string, double>>& counters) {
  counters.emplace_back("submits", static_cast<double>(stats.submits));
  counters.emplace_back("executor_tasks",
                        static_cast<double>(stats.executor_tasks));
  counters.emplace_back("executor_steals",
                        static_cast<double>(stats.executor_steals));
  counters.emplace_back("executor_queue_depth",
                        static_cast<double>(stats.executor_queue_depth));
  counters.emplace_back("executor_workers",
                        static_cast<double>(stats.executor_workers));
  counters.emplace_back("deadline_expirations",
                        static_cast<double>(stats.deadline_expirations));
  counters.emplace_back("cancellations",
                        static_cast<double>(stats.cancellations));
  counters.emplace_back("store_hits", static_cast<double>(stats.store_hits));
  counters.emplace_back("store_writes",
                        static_cast<double>(stats.store_writes));
  counters.emplace_back("remote_hits",
                        static_cast<double>(stats.remote_hits));
  counters.emplace_back("remote_writes",
                        static_cast<double>(stats.remote_writes));
  counters.emplace_back("chase_steps",
                        static_cast<double>(stats.chase_steps));
  counters.emplace_back("chase_index_rebuilds",
                        static_cast<double>(stats.chase_index_rebuilds));
  counters.emplace_back("segments_built",
                        static_cast<double>(stats.segments_built));
  counters.emplace_back("bulk_ind_applications",
                        static_cast<double>(stats.bulk_ind_applications));
  counters.emplace_back("inds_pruned",
                        static_cast<double>(stats.inds_pruned));
  counters.emplace_back("witness_searches",
                        static_cast<double>(stats.witness_searches));
  counters.emplace_back("witness_searches_skipped",
                        static_cast<double>(stats.witness_searches_skipped));
  counters.emplace_back("canonical_fallbacks",
                        static_cast<double>(stats.canonical_fallbacks));
  counters.emplace_back("entries_retagged",
                        static_cast<double>(stats.entries_retagged));
  counters.emplace_back("entries_dropped",
                        static_cast<double>(stats.entries_dropped));
  counters.emplace_back("monotone_hits",
                        static_cast<double>(stats.monotone_hits));
}

// Appends one hit/publish counter pair per active verdict tier (probe
// order), keyed "tier<i>_<kind>_hits" / "_publishes" — e.g. "tier0_lru_hits",
// "tier2_remote_publishes" — so trajectories show *which* layer of the
// hierarchy absorbed a workload, not just that something did. Remote tiers
// additionally report their wire behavior: fetch round trips, batched
// fetches, reconnects and transport errors (schema 6) — the counters that
// distinguish "one RTT per key" from "one batched RTT per burst" and a
// stable link from reconnect churn.
inline void AppendTierCounters(
    const std::vector<VerdictTierStats>& tiers,
    std::vector<std::pair<std::string, double>>& counters) {
  for (size_t i = 0; i < tiers.size(); ++i) {
    // "store:/path" / "remote:peer" → the kind token before the colon.
    const std::string kind = tiers[i].name.substr(0, tiers[i].name.find(':'));
    const std::string prefix = StrCat("tier", i, "_", kind);
    counters.emplace_back(StrCat(prefix, "_hits"),
                          static_cast<double>(tiers[i].hits));
    counters.emplace_back(StrCat(prefix, "_publishes"),
                          static_cast<double>(tiers[i].publishes));
    if (kind == "remote") {
      counters.emplace_back(StrCat(prefix, "_fetch_rtts"),
                            static_cast<double>(tiers[i].fetches));
      counters.emplace_back(StrCat(prefix, "_batched_fetches"),
                            static_cast<double>(tiers[i].batched_fetches));
      counters.emplace_back(StrCat(prefix, "_reconnects"),
                            static_cast<double>(tiers[i].reconnects));
      counters.emplace_back(StrCat(prefix, "_transport_errors"),
                            static_cast<double>(tiers[i].transport_errors));
    }
  }
}

// Appends the engine's cache-capacity knobs (and whether the persistent
// tier is on) to a record's counters. Capacity knobs change cache behavior
// wholesale, so a trajectory comparison across PRs is only interpretable
// when each record names the configuration it measured.
inline void AppendEngineConfig(
    const EngineConfig& config,
    std::vector<std::pair<std::string, double>>& counters) {
  const bool caches_on = config.enable_cache;
  // With an explicit tier stack the legacy capacity knob is inert — the
  // LRU capacity actually in effect is the first Lru spec's; report that,
  // or the record would label itself with a configuration it never ran.
  size_t verdict_capacity = config.verdict_cache_capacity;
  if (!config.tiers.empty()) {
    verdict_capacity = 0;
    for (const TierSpec& spec : config.tiers) {
      if (spec.kind == TierSpec::Kind::kLru) {
        verdict_capacity = spec.capacity;
        break;
      }
    }
  }
  counters.emplace_back(
      "verdict_cache_capacity",
      static_cast<double>(caches_on ? verdict_capacity : 0));
  bool has_store_tier = false;
  for (const TierSpec& spec : config.tiers) {
    if (spec.kind == TierSpec::Kind::kLocalStore) has_store_tier = true;
  }
  counters.emplace_back("store_enabled", has_store_tier ? 1.0 : 0.0);
  counters.emplace_back("tiers_configured",
                        static_cast<double>(config.tiers.size()));
  // Numeric ChaseCoreMode (0 scalar, 1 bulk); replaces the schema<=6
  // boolean chase_core_bulk.
  counters.emplace_back(
      "chase_core",
      static_cast<double>(static_cast<int>(config.containment.limits.core)));
}

// Decides (lhs[i], rhs[i]) under `deps` for every i as one SubmitAll burst
// and returns the verdicts in order. The requests borrow their inputs: every
// future is drained before this returns.
inline std::vector<Result<EngineVerdict>> DecideAll(
    ContainmentEngine& engine, const std::vector<ConjunctiveQuery>& lhs,
    const std::vector<ConjunctiveQuery>& rhs, const DependencySet& deps) {
  std::vector<ContainmentRequest> requests;
  requests.reserve(lhs.size());
  for (size_t i = 0; i < lhs.size(); ++i) {
    requests.push_back(ContainmentRequest::Borrow(lhs[i], rhs[i], deps));
  }
  std::vector<Result<EngineVerdict>> verdicts;
  verdicts.reserve(lhs.size());
  for (EngineFuture<EngineOutcome>& f : engine.SubmitAll(std::move(requests))) {
    Result<EngineOutcome> outcome = f.Get();
    if (outcome.ok()) {
      verdicts.push_back(std::move(outcome->verdict));
    } else {
      verdicts.push_back(outcome.status());
    }
  }
  return verdicts;
}

// A deterministic keyed IND-only containment workload of `classes` verdict
// classes × `copies` isomorphic copies each (odd classes planted contained),
// shared by the cache-tier benches (bench_store_warmstart, bench_tier_stack)
// so their enforced gates measure the *same* workload shape and a generator
// change cannot silently diverge them. Seeds are parameters: each bench
// keeps its historical key space, and re-invocations of one binary
// regenerate byte-identical queries — which is what makes "the warm/remote
// run re-asks the same canonical keys" true.
struct ContainmentWorkload {
  // unique_ptrs keep the catalog and symbol-table addresses stable across
  // moves of the workload itself.
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<SymbolTable> symbols;
  DependencySet deps;
  std::vector<ConjunctiveQuery> lhs;
  std::vector<ConjunctiveQuery> rhs;
};

inline ContainmentWorkload BuildContainmentWorkload(size_t classes,
                                                    size_t copies,
                                                    uint32_t catalog_seed,
                                                    uint32_t class_seed_base) {
  ContainmentWorkload w;
  w.symbols = std::make_unique<SymbolTable>();
  {
    Rng rng(catalog_seed);
    RandomCatalogParams cp;
    cp.num_relations = 4;
    cp.min_arity = 2;
    cp.max_arity = 3;
    w.catalog = std::make_unique<Catalog>(RandomCatalog(rng, cp));
    RandomIndParams ip;
    ip.count = 4;
    ip.width = 1;  // W = 1: every task decides within the Lemma 5 bound
    w.deps = RandomIndOnlyDeps(rng, *w.catalog, ip);
  }
  w.lhs.reserve(classes * copies);
  w.rhs.reserve(classes * copies);
  for (size_t c = 0; c < classes; ++c) {
    const bool planted = (c % 2) == 1;  // exercise both verdicts per tier
    for (size_t k = 0; k < copies; ++k) {
      Rng rng(class_seed_base + static_cast<uint32_t>(c));
      RandomQueryParams qp;
      qp.num_conjuncts = 6;
      qp.num_vars = 7;
      qp.name_prefix = StrCat("L", c, "v", k, "_");
      w.lhs.push_back(RandomQuery(rng, *w.catalog, *w.symbols, qp));
      if (planted) {
        Result<ConjunctiveQuery> q_prime = PlantedSuperQuery(
            rng, w.lhs.back(), w.deps, *w.symbols, /*extra_conjuncts=*/2,
            /*chase_depth=*/2);
        if (q_prime.ok()) {
          w.rhs.push_back(*std::move(q_prime));
          continue;
        }
      }
      qp.num_conjuncts = 2;
      qp.num_vars = 4;
      qp.name_prefix = StrCat("R", c, "v", k, "_");
      w.rhs.push_back(RandomQuery(rng, *w.catalog, *w.symbols, qp));
    }
  }
  return w;
}

}  // namespace cqchase::bench

#endif  // CQCHASE_BENCH_BENCH_UTIL_H_
