// Concurrency stress for the sharded symbol arena and the engine's
// concurrent decisions. Every test here is also a ThreadSanitizer target:
// ci.sh builds this binary (plus the other engine/chase tests) under
// -fsanitize=thread and fails CI on any reported race. The assertions cover
// correctness (distinct ids, verdict parity with a sequential oracle, NDV
// blocks returned once decisions end); TSan covers the memory model.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/string_util.h"
#include "cq/cq_parser.h"
#include "deps/deps_parser.h"
#include "engine/engine.h"
#include "gen/generators.h"
#include "submit_util.h"
#include "symbols/symbol_table.h"

namespace cqchase {
namespace {

// Shards outlive their minting threads: a chase NDV names something only
// while its shard is alive, and the checks below read them afterwards.
std::vector<SymbolTable::NdvShard> MakeShards(SymbolTable& table, int n) {
  std::vector<SymbolTable::NdvShard> shards;
  for (int i = 0; i < n; ++i) shards.push_back(table.CreateShard());
  return shards;
}

TEST(ShardConcurrencyTest, ParallelShardsMintDistinctReadableNdvs) {
  SymbolTable table;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;
  std::vector<std::vector<Term>> minted(kThreads);
  std::vector<SymbolTable::NdvShard> shards = MakeShards(table, kThreads);
  {
    std::vector<std::thread> pool;
    for (int w = 0; w < kThreads; ++w) {
      pool.emplace_back([&shards, &minted, w] {
        SymbolTable::NdvShard& shard = shards[w];
        minted[w].reserve(kPerThread);
        for (int i = 0; i < kPerThread; ++i) {
          minted[w].push_back(shard.MakeChaseNdv(NdvProvenance{
              /*attribute_index=*/static_cast<uint32_t>(w),
              /*source_conjunct=*/static_cast<uint64_t>(i),
              /*ind_index=*/0, /*level=*/1}));
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  std::set<uint32_t> ids;
  for (int w = 0; w < kThreads; ++w) {
    uint32_t prev = 0;
    for (size_t i = 0; i < minted[w].size(); ++i) {
      Term t = minted[w][i];
      EXPECT_TRUE(ids.insert(t.id()).second) << "duplicate id " << t.id();
      if (i > 0) {
        EXPECT_GT(t.id(), prev) << "shard ids must increase";
      }
      prev = t.id();
    }
    // Spot-check a cross-thread read of an entry written lock-free.
    ASSERT_TRUE(table.Provenance(minted[w][7]).has_value());
    EXPECT_EQ(table.Provenance(minted[w][7])->attribute_index,
              static_cast<uint32_t>(w));
    EXPECT_EQ(table.Provenance(minted[w][7])->source_conjunct, 7u);
  }
  EXPECT_EQ(table.num_nondist_vars(),
            static_cast<size_t>(kThreads) * kPerThread);
}

TEST(ShardConcurrencyTest, ShardMintingInterleavedWithLockedInterning) {
  // Shard mints race the locked intern/fresh paths for the same id space;
  // ids must stay disjoint and the index must only see the interned names.
  SymbolTable table;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<Term>> minted(kThreads);
  std::vector<Term> interned;
  std::vector<SymbolTable::NdvShard> shards = MakeShards(table, kThreads);
  {
    std::vector<std::thread> pool;
    for (int w = 0; w < kThreads; ++w) {
      pool.emplace_back([&shards, &minted, w] {
        SymbolTable::NdvShard& shard = shards[w];
        for (int i = 0; i < kPerThread; ++i) {
          minted[w].push_back(shard.MakeChaseNdv(NdvProvenance{}));
        }
      });
    }
    interned.reserve(kPerThread);
    for (int i = 0; i < kPerThread; ++i) {
      interned.push_back(table.MakeFreshNondistVar("it"));
    }
    for (std::thread& t : pool) t.join();
  }
  std::set<uint32_t> ids;
  for (const auto& v : minted) {
    for (Term t : v) EXPECT_TRUE(ids.insert(t.id()).second);
  }
  for (Term t : interned) {
    EXPECT_TRUE(ids.insert(t.id()).second);
    EXPECT_EQ(table.Find(TermKind::kNondistVar, table.Name(t)), t);
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kThreads + 1) * kPerThread);
}

// A SubmitAll workload mixing distinct canonical keys, exact repeats (shared
// verdict keys), and one fixed Q probed against many Q'.
// unique_ptrs keep the catalog / symbol-table addresses stable across moves
// of the workload itself — the queries hold pointers into them.
struct StressWorkload {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<SymbolTable> symbols;
  DependencySet deps;
  std::vector<ConjunctiveQuery> queries;  // stable storage the requests borrow
  std::vector<ContainmentRequest> requests;
};

StressWorkload BuildStressWorkload() {
  StressWorkload w;
  Rng rng(33);
  RandomCatalogParams cp;
  cp.num_relations = 3;
  cp.min_arity = 2;
  cp.max_arity = 3;
  w.catalog = std::make_unique<Catalog>(RandomCatalog(rng, cp));
  w.symbols = std::make_unique<SymbolTable>();
  RandomIndParams ip;
  ip.count = 4;
  ip.width = 1;
  w.deps = RandomIndOnlyDeps(rng, *w.catalog, ip);

  // Distinct pairs.
  w.queries.reserve(64);
  for (int i = 0; i < 10; ++i) {
    RandomQueryParams qp;
    qp.num_conjuncts = 4;
    qp.name_prefix = StrCat("dl", i);
    w.queries.push_back(RandomQuery(rng, *w.catalog, *w.symbols, qp));
    qp.num_conjuncts = 2;
    qp.name_prefix = StrCat("dr", i);
    w.queries.push_back(RandomQuery(rng, *w.catalog, *w.symbols, qp));
  }
  // One fixed Q against several Q' (distinct verdicts).
  RandomQueryParams fixed;
  fixed.num_conjuncts = 4;
  fixed.name_prefix = "fx";
  w.queries.push_back(RandomQuery(rng, *w.catalog, *w.symbols, fixed));
  const size_t fixed_idx = w.queries.size() - 1;
  for (int i = 0; i < 6; ++i) {
    RandomQueryParams qp;
    qp.num_conjuncts = 2;
    qp.name_prefix = StrCat("fr", i);
    w.queries.push_back(RandomQuery(rng, *w.catalog, *w.symbols, qp));
  }

  for (int i = 0; i < 10; ++i) {
    w.requests.push_back(ContainmentRequest::Borrow(
        w.queries[2 * i], w.queries[2 * i + 1], w.deps));
  }
  for (int i = 0; i < 6; ++i) {
    w.requests.push_back(ContainmentRequest::Borrow(
        w.queries[fixed_idx], w.queries[fixed_idx + 1 + i], w.deps));
  }
  // Exact repeats of everything so far: same inputs, same canonical keys.
  const size_t unique_tasks = w.requests.size();
  for (size_t i = 0; i < unique_tasks; ++i) {
    w.requests.push_back(w.requests[i]);
  }
  return w;
}

TEST(SubmitAllConcurrencyTest, EightWorkerFanOutMatchesSequentialOracle) {
  StressWorkload w = BuildStressWorkload();

  // The oracle decides inline, one request at a time, with no caches.
  EngineConfig oracle_config;
  oracle_config.enable_cache = false;
  ContainmentEngine oracle(w.catalog.get(), w.symbols.get(), oracle_config);
  std::vector<Result<EngineVerdict>> expected;
  for (const ContainmentRequest& r : w.requests) {
    expected.push_back(oracle.Check(*r.q, *r.q_prime, *r.deps));
  }

  EngineConfig threaded_config;
  threaded_config.executor_threads = 8;
  ContainmentEngine threaded(w.catalog.get(), w.symbols.get(), threaded_config);

  // Two passes through the same engine: cold caches, then warm.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<Result<EngineVerdict>> got = DecideAll(threaded, w.requests);
    ASSERT_EQ(expected.size(), got.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(expected[i].ok(), got[i].ok())
          << "pass " << pass << " task " << i << ": "
          << (expected[i].ok() ? got[i].status().ToString()
                               : expected[i].status().ToString());
      if (!expected[i].ok()) continue;
      EXPECT_EQ(expected[i]->report.contained, got[i]->report.contained)
          << "pass " << pass << " task " << i;
    }
  }
}

TEST(SubmitConcurrencyTest, ConcurrentChasesRaceBlockRecycling) {
  // Four executor workers decide cold IND tasks, two per Q. Each decision's
  // chase returns its NDV blocks under the table mutex when it ends, while
  // other workers' shards lease blocks. Verdicts must match a cache-less
  // sequential oracle, and once every future has resolved — the engine
  // still alive — every block is back on the free list.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("R", {"a", "b"}).ok());
  ASSERT_TRUE(catalog.AddRelation("S", {"x", "y"}).ok());
  SymbolTable symbols;
  DependencySet deps =
      *ParseDependencies(catalog, "R[2] <= S[1]\nS[2] <= R[1]");
  auto parse = [&](const std::string& text) {
    Result<ConjunctiveQuery> q = ParseQuery(catalog, symbols, text);
    EXPECT_TRUE(q.ok()) << q.status();
    return *std::move(q);
  };
  std::vector<ConjunctiveQuery> qs;
  for (int i = 0; i < 48; ++i) {
    qs.push_back(parse(StrCat("ans(h", i, ") :- R(h", i, ", 'v", i, "')")));
  }
  const std::vector<ConjunctiveQuery> rhs = {
      parse("ans(p) :- R(p, p0), S(p0, p1), R(p1, p2)"),  // contained
      parse("ans(r) :- R(r, r0), S(r0, 'w')"),            // not contained
  };

  EngineConfig oracle_config;
  oracle_config.enable_cache = false;
  ContainmentEngine oracle(&catalog, &symbols, oracle_config);
  std::vector<bool> expected;
  for (const ConjunctiveQuery& q : qs) {
    for (const ConjunctiveQuery& qp : rhs) {
      Result<EngineVerdict> v = oracle.Check(q, qp, deps);
      ASSERT_TRUE(v.ok()) << v.status();
      expected.push_back(v->report.contained);
    }
  }

  EngineConfig config;
  config.executor_threads = 4;
  ContainmentEngine engine(&catalog, &symbols, config);
  std::vector<EngineFuture<EngineOutcome>> futures;
  for (const ConjunctiveQuery& q : qs) {
    for (const ConjunctiveQuery& qp : rhs) {
      futures.push_back(engine.Submit(ContainmentRequest::Borrow(q, qp, deps)));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<EngineOutcome> got = futures[i].Get();
    ASSERT_TRUE(got.ok()) << "task " << i << ": " << got.status();
    EXPECT_EQ(got->verdict.report.contained, expected[i]) << "task " << i;
  }
  EXPECT_EQ(symbols.chase_ndv_blocks_held(), 0u);
  EXPECT_EQ(engine.stats().chases_built, futures.size());
}

TEST(SubmitConcurrencyTest, StreamingShardsRaceChaseShards) {
  // Four client threads submit to a four-worker engine. Single-conjunct Q'
  // take the PSPACE streaming route, which mints its frontier NDVs through
  // a per-call shard; multi-conjunct Q' chase, minting through the chase's
  // shard. Both lease blocks from, and return them to, the one shared
  // SymbolTable while other workers render names and read provenance.
  // Verdicts must match a sequential oracle that never streams.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("R", {"a", "b"}).ok());
  ASSERT_TRUE(catalog.AddRelation("S", {"x", "y"}).ok());
  SymbolTable symbols;
  DependencySet deps =
      *ParseDependencies(catalog, "R[2] <= S[1]\nS[2] <= R[1]");
  auto parse = [&](const std::string& text) {
    Result<ConjunctiveQuery> q = ParseQuery(catalog, symbols, text);
    EXPECT_TRUE(q.ok()) << q.status();
    return *std::move(q);
  };
  constexpr int kClients = 4;
  constexpr int kPerClient = 24;
  std::vector<ConjunctiveQuery> qs;
  for (int i = 0; i < kClients * kPerClient; ++i) {
    qs.push_back(parse(StrCat("ans(h) :- R(h, 'v", i, "')")));
  }
  const std::vector<ConjunctiveQuery> rhs = {
      parse("ans(p) :- R(p, p0)"),              // streaming, contained
      parse("ans(p) :- S(p, p0)"),              // streaming, not contained
      parse("ans(p) :- R(p, p0), S(p0, p1)"),   // chase, contained
      parse("ans(r) :- R(r, r0), S(r0, 'w')"),  // chase, not contained
  };

  EngineConfig oracle_config;
  oracle_config.enable_cache = false;
  oracle_config.route_streaming_single_conjunct = false;
  ContainmentEngine oracle(&catalog, &symbols, oracle_config);
  std::vector<bool> expected;
  for (size_t i = 0; i < qs.size(); ++i) {
    Result<EngineVerdict> v = oracle.Check(qs[i], rhs[i % rhs.size()], deps);
    ASSERT_TRUE(v.ok()) << v.status();
    expected.push_back(v->report.contained);
  }

  EngineConfig config;
  config.executor_threads = 4;
  auto engine = std::make_unique<ContainmentEngine>(&catalog, &symbols, config);
  std::vector<std::vector<Result<EngineOutcome>>> got(kClients);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int k = 0; k < kPerClient; ++k) {
          const size_t i = static_cast<size_t>(c * kPerClient + k);
          got[c].push_back(engine
                               ->Submit(ContainmentRequest::Borrow(
                                   qs[i], rhs[i % rhs.size()], deps))
                               .Get());
          const Term h = qs[i].summary()[0];
          EXPECT_EQ(symbols.Name(h), "h");
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  uint64_t streamed = 0;
  for (int c = 0; c < kClients; ++c) {
    for (int k = 0; k < kPerClient; ++k) {
      const size_t i = static_cast<size_t>(c * kPerClient + k);
      const Result<EngineOutcome>& outcome = got[c][k];
      ASSERT_TRUE(outcome.ok()) << "task " << i << ": " << outcome.status();
      EXPECT_EQ(outcome->verdict.report.contained, expected[i])
          << "task " << i;
      if (outcome->verdict.strategy == DecisionStrategy::kStreamingFrontier) {
        ++streamed;
      }
    }
  }
  EXPECT_EQ(streamed, static_cast<uint64_t>(kClients * kPerClient / 2));
  engine.reset();
  EXPECT_EQ(symbols.chase_ndv_blocks_held(), 0u);
}

TEST(SubmitConcurrencyTest, ColdDecisionsShareOneWideSigmaPlan) {
  // Eight threads cold-decide distinct Q under one wide Σ at once: every
  // chase runs on the single Σ record's compiled plan, each instantiating
  // only the slice its Q reaches. Verdicts and the pruning counters must
  // match a cache-less oracle whose chases compile private plans.
  constexpr int kThreads = 8;
  constexpr int kChains = 40;  // A_i[x] ⊆ B_i[x] ⊆ C_i[x]: 80 INDs
  Catalog catalog;
  SymbolTable symbols;
  DependencySet deps;
  for (int i = 0; i < kChains; ++i) {
    const RelationId a = *catalog.AddRelation(StrCat("A", i), {"x", "y"});
    const RelationId b = *catalog.AddRelation(StrCat("B", i), {"x", "y"});
    const RelationId c = *catalog.AddRelation(StrCat("C", i), {"x", "y"});
    ASSERT_TRUE(deps.AddInd(catalog, {a, {0}, b, {0}}).ok());
    ASSERT_TRUE(deps.AddInd(catalog, {b, {0}, c, {0}}).ok());
  }
  auto parse = [&](const std::string& text) {
    Result<ConjunctiveQuery> q = ParseQuery(catalog, symbols, text);
    EXPECT_TRUE(q.ok()) << q.status();
    return *std::move(q);
  };
  // Per chain: A_i ⊆ C_i (contained through both chain INDs) and C_i ⊆ A_i
  // (not contained).
  std::vector<ConjunctiveQuery> qs, rhs;
  for (int i = 0; i < kChains; ++i) {
    qs.push_back(parse(StrCat("ans(x) :- A", i, "(x, y)")));
    rhs.push_back(parse(StrCat("ans(p) :- C", i, "(p, z)")));
    qs.push_back(parse(StrCat("ans(x) :- C", i, "(x, y)")));
    rhs.push_back(parse(StrCat("ans(p) :- A", i, "(p, z)")));
  }

  EngineConfig oracle_config;
  oracle_config.enable_cache = false;
  oracle_config.route_streaming_single_conjunct = false;
  ContainmentEngine oracle(&catalog, &symbols, oracle_config);
  std::vector<bool> expected;
  for (size_t i = 0; i < qs.size(); ++i) {
    Result<EngineVerdict> v = oracle.Check(qs[i], rhs[i], deps);
    ASSERT_TRUE(v.ok()) << v.status();
    EXPECT_EQ(v->report.contained, i % 2 == 0) << "task " << i;
    expected.push_back(v->report.contained);
  }

  EngineConfig config;
  config.route_streaming_single_conjunct = false;
  ContainmentEngine engine(&catalog, &symbols, config);
  ASSERT_EQ(engine.Analyze(deps).sigma_class, SigmaClass::kIndOnlyW1);
  std::vector<std::optional<bool>> got(qs.size());
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (size_t i = t; i < qs.size(); i += kThreads) {
        Result<EngineVerdict> v = engine.Check(qs[i], rhs[i], deps);
        if (v.ok()) got[i] = v->report.contained;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < qs.size(); ++i) {
    ASSERT_TRUE(got[i].has_value()) << "task " << i;
    EXPECT_EQ(*got[i], expected[i]) << "task " << i;
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(engine.cache_sizes().sigma_entries, 1u);
  EXPECT_EQ(stats.chases_built, qs.size());
  EXPECT_EQ(stats.chases_built, oracle.stats().chases_built);
  EXPECT_EQ(stats.inds_pruned, oracle.stats().inds_pruned);
  EXPECT_GT(stats.inds_pruned, 0u);
}


TEST(SubmitConcurrencyTest, InlineHitsRaceMissesAndClearCaches) {
  // Four client threads submit the same shared-key workload through
  // LRU -> local store, so one thread's inline LRU or store hit races
  // another's queued miss publishing the key, while a fifth thread keeps
  // dropping the LRU and the Σ records under both. Every verdict must
  // match a cache-less sequential oracle.
  StressWorkload w = BuildStressWorkload();
  EngineConfig oracle_config;
  oracle_config.enable_cache = false;
  ContainmentEngine oracle(w.catalog.get(), w.symbols.get(), oracle_config);
  std::vector<Result<EngineVerdict>> expected;
  for (const ContainmentRequest& r : w.requests) {
    expected.push_back(oracle.Check(*r.q, *r.q_prime, *r.deps));
  }

  std::string dir = StrCat(::testing::TempDir(), "/cqchase_inline_XXXXXX");
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  EngineConfig config;
  config.executor_threads = 2;
  config.tiers = {TierSpec::Lru(64), TierSpec::LocalStore(dir)};
  ContainmentEngine engine(w.catalog.get(), w.symbols.get(), config);
  ASSERT_NE(engine.store(), nullptr) << engine.store_status();

  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  const size_t n = w.requests.size();
  std::vector<std::vector<Result<EngineOutcome>>> got(kClients);
  std::atomic<int> clients_done{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t k = 0; k < n; ++k) {
          // Each client walks the workload from its own offset.
          const size_t i = (k + static_cast<size_t>(c) * n / kClients) % n;
          got[c].push_back(engine.Submit(w.requests[i]).Get());
        }
      }
      clients_done.fetch_add(1);
    });
  }
  threads.emplace_back([&] {
    while (clients_done.load() < kClients) {
      engine.ClearCaches();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) t.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), n * kRounds);
    for (size_t j = 0; j < got[c].size(); ++j) {
      const size_t i = (j % n + static_cast<size_t>(c) * n / kClients) % n;
      ASSERT_EQ(expected[i].ok(), got[c][j].ok())
          << "client " << c << " ask " << j << ": "
          << (expected[i].ok() ? got[c][j].status().ToString()
                               : expected[i].status().ToString());
      if (!expected[i].ok()) continue;
      EXPECT_EQ(expected[i]->report.contained,
                got[c][j]->verdict.report.contained)
          << "client " << c << " ask " << j;
    }
  }
  // A client's later rounds re-ask keys its first round published, and
  // ClearCaches never empties the store, so some asks were local hits.
  const EngineStats stats = engine.stats();
  EXPECT_GT(stats.cache_hits + stats.store_hits, 0u);
  EXPECT_EQ(stats.submits, static_cast<uint64_t>(kClients * kRounds) * n);
}

}  // namespace
}  // namespace cqchase
