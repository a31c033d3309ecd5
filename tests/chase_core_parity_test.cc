// Differential proof of the chase-core equivalence contract: the bulk
// (set-at-a-time, ChaseCoreMode::kBulk) core must produce a final prefix
// IDENTICAL to the scalar oracle — same conjunct ids, facts, levels, alive
// flags, parents, arcs, step counts, and outcome — on randomized Σ + query
// families and on the paper's scenarios, including runs that hit resource
// limits and FD merges in the middle of a sweep, and identical engine
// verdicts + certificates end to end.
//
// Twin-universe technique: every comparison generates its workload TWICE
// from the same seed into two independent SymbolTables, so the two cores
// mint NDVs from identical id sequences and Term-level equality (kind, id)
// is meaningful across the pair.
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "chase/chase.h"
#include "chase/plan.h"
#include "core/certificate.h"
#include "cq/cq_parser.h"
#include "deps/deps_parser.h"
#include "engine/engine.h"
#include "gen/generators.h"
#include "gen/scenarios.h"
#include "submit_util.h"

namespace cqchase {
namespace {

// One self-owning chase run: universe + chase + the ExpandToLevel status.
struct ChaseRun {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<SymbolTable> symbols;
  std::unique_ptr<DependencySet> deps;
  std::vector<ConjunctiveQuery> queries;
  std::unique_ptr<Chase> chase;
  Status expand_status = Status::OK();
};

using UniverseBuilder = std::function<void(Rng&, ChaseRun&)>;

// The universe of `seed`, not yet chased.
ChaseRun BuildUniverse(uint64_t seed, const UniverseBuilder& build) {
  ChaseRun run;
  run.catalog = std::make_unique<Catalog>();
  run.symbols = std::make_unique<SymbolTable>();
  run.deps = std::make_unique<DependencySet>();
  Rng rng(seed);
  build(rng, run);
  return run;
}

ChaseRun RunOne(uint64_t seed, const UniverseBuilder& build,
                ChaseCoreMode mode, ChaseVariant variant, ChaseLimits limits,
                uint32_t level) {
  ChaseRun run = BuildUniverse(seed, build);
  limits.core = mode;
  run.chase = std::make_unique<Chase>(run.catalog.get(), run.symbols.get(),
                                      run.deps.get(), variant, limits);
  Status init = run.chase->Init(run.queries.at(0));
  EXPECT_TRUE(init.ok()) << init.ToString();
  Result<ChaseOutcome> outcome = run.chase->ExpandToLevel(level);
  run.expand_status = outcome.status();
  return run;
}

void ExpectIdenticalPrefixes(const Chase& scalar, const Chase& bulk,
                             const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(scalar.outcome(), bulk.outcome());
  EXPECT_EQ(scalar.steps(), bulk.steps());
  EXPECT_EQ(scalar.summary(), bulk.summary());
  ASSERT_EQ(scalar.conjuncts().size(), bulk.conjuncts().size());
  for (size_t i = 0; i < scalar.conjuncts().size(); ++i) {
    const ChaseConjunct& s = scalar.conjuncts()[i];
    const ChaseConjunct& b = bulk.conjuncts()[i];
    ASSERT_EQ(s.id, b.id) << "conjunct " << i;
    EXPECT_EQ(s.level, b.level) << "conjunct " << i;
    EXPECT_EQ(s.alive, b.alive) << "conjunct " << i;
    EXPECT_EQ(s.fact, b.fact) << "conjunct " << i;
    EXPECT_EQ(s.parent, b.parent) << "conjunct " << i;
    EXPECT_EQ(s.parent_ind, b.parent_ind) << "conjunct " << i;
  }
  ASSERT_EQ(scalar.arcs().size(), bulk.arcs().size());
  for (size_t i = 0; i < scalar.arcs().size(); ++i) {
    const ChaseArc& s = scalar.arcs()[i];
    const ChaseArc& b = bulk.arcs()[i];
    EXPECT_EQ(s.from, b.from) << "arc " << i;
    EXPECT_EQ(s.to, b.to) << "arc " << i;
    EXPECT_EQ(s.ind_index, b.ind_index) << "arc " << i;
    EXPECT_EQ(s.cross, b.cross) << "arc " << i;
  }
  // Catch-all (and checks NDV *names* match across the twin tables).
  EXPECT_EQ(scalar.ToString(), bulk.ToString());
}

void ExpectSameStatus(const Status& scalar, const Status& bulk,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(scalar.code(), bulk.code())
      << "scalar: " << scalar.ToString() << " bulk: " << bulk.ToString();
}

// Both cores on twin universes; compares the bulk core's status and final
// prefix against the scalar oracle. Returns the bulk run.
ChaseRun RunParityCase(uint64_t seed, const UniverseBuilder& build,
                       ChaseVariant variant, ChaseLimits limits,
                       uint32_t level, const std::string& label) {
  ChaseRun scalar = RunOne(seed, build, ChaseCoreMode::kScalar, variant,
                           limits, level);
  ChaseRun bulk =
      RunOne(seed, build, ChaseCoreMode::kBulk, variant, limits, level);
  ExpectSameStatus(scalar.expand_status, bulk.expand_status, label);
  ExpectIdenticalPrefixes(*scalar.chase, *bulk.chase, label);
  return bulk;
}

// A fixed scenario as a universe (the seed's Rng is unused).
UniverseBuilder ScenarioUniverse(Scenario (*make)()) {
  return [make](Rng&, ChaseRun& run) {
    Scenario s = make();
    run.catalog = std::move(s.catalog);
    run.symbols = std::move(s.symbols);
    *run.deps = std::move(s.deps);
    run.queries = std::move(s.queries);
  };
}

// S: 1 -> 2 with R[1] <= S[1] over ans(x) :- R(x, y), R(x, z): the O-chase
// mints S(x, n1) and S(x, n2) in one level, and they agree on the FD key.
Scenario SameFdKeyScenario() {
  Scenario s;
  s.catalog = std::make_unique<Catalog>();
  s.symbols = std::make_unique<SymbolTable>();
  EXPECT_TRUE(s.catalog->AddRelation("R", {"r1", "r2"}).ok());
  EXPECT_TRUE(s.catalog->AddRelation("S", {"s1", "s2"}).ok());
  Result<DependencySet> deps =
      ParseDependencies(*s.catalog, "S: 1 -> 2; R[1] <= S[1]");
  EXPECT_TRUE(deps.ok()) << deps.status().ToString();
  s.deps = std::move(*deps);
  Result<ConjunctiveQuery> q =
      ParseQuery(*s.catalog, *s.symbols, "ans(x) :- R(x, y), R(x, z)");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  s.queries.push_back(std::move(*q));
  return s;
}

UniverseBuilder IndOnlyUniverse(size_t num_relations, size_t num_inds,
                                size_t ind_width, size_t num_conjuncts) {
  return [=](Rng& rng, ChaseRun& run) {
    RandomCatalogParams cp;
    cp.num_relations = num_relations;
    cp.min_arity = 2;
    cp.max_arity = 4;
    *run.catalog = RandomCatalog(rng, cp);
    RandomIndParams ip;
    ip.count = num_inds;
    ip.width = ind_width;
    *run.deps = RandomIndOnlyDeps(rng, *run.catalog, ip);
    RandomQueryParams qp;
    qp.num_conjuncts = num_conjuncts;
    qp.num_vars = 6;
    qp.num_dist_vars = 2;
    run.queries.push_back(RandomQuery(rng, *run.catalog, *run.symbols, qp));
  };
}

UniverseBuilder KeyBasedUniverse(size_t key_size, size_t num_inds,
                                 double constant_prob) {
  return [=](Rng& rng, ChaseRun& run) {
    RandomCatalogParams cp;
    cp.num_relations = 4;
    cp.min_arity = key_size + 1;
    cp.max_arity = key_size + 3;
    *run.catalog = RandomCatalog(rng, cp);
    RandomKeyBasedParams kp;
    kp.key_size = key_size;
    kp.num_inds = num_inds;
    *run.deps = RandomKeyBasedDeps(rng, *run.catalog, kp);
    RandomQueryParams qp;
    qp.num_conjuncts = 5;
    qp.num_vars = 5;
    qp.num_dist_vars = 1;
    qp.constant_prob = constant_prob;
    run.queries.push_back(RandomQuery(rng, *run.catalog, *run.symbols, qp));
  };
}

TEST(ChaseCoreParity, RandomIndOnlyFamilies) {
  ChaseLimits limits;
  limits.max_conjuncts = 4000;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const size_t num_inds = 2 + seed * 9;  // 11 .. 92 INDs
    UniverseBuilder build = IndOnlyUniverse(3 + seed % 4, num_inds,
                                            /*ind_width=*/1,
                                            /*num_conjuncts=*/5);
    for (ChaseVariant variant :
         {ChaseVariant::kRequired, ChaseVariant::kOblivious}) {
      RunParityCase(seed, build, variant, limits, /*level=*/3,
                    "ind-only seed=" + std::to_string(seed) + " variant=" +
                        (variant == ChaseVariant::kRequired ? "R" : "O"));
    }
  }
}

TEST(ChaseCoreParity, RandomWideIndFamilies) {
  // Width-2 INDs: fewer fresh columns, more witness short-circuits.
  ChaseLimits limits;
  limits.max_conjuncts = 4000;
  for (uint64_t seed = 21; seed <= 26; ++seed) {
    RunParityCase(seed, IndOnlyUniverse(5, 25, /*ind_width=*/2, 6),
                  ChaseVariant::kRequired, limits, /*level=*/3,
                  "wide-ind seed=" + std::to_string(seed));
  }
}

TEST(ChaseCoreParity, RandomKeyBasedFamilies) {
  // FDs fire mid-chase: exercises the merge -> sweep-abort -> rebuild path
  // against the scalar escalation discipline.
  ChaseLimits limits;
  limits.max_conjuncts = 4000;
  for (uint64_t seed = 41; seed <= 50; ++seed) {
    for (ChaseVariant variant :
         {ChaseVariant::kRequired, ChaseVariant::kOblivious}) {
      RunParityCase(seed, KeyBasedUniverse(1 + seed % 2, 6, 0.0), variant,
                    limits, /*level=*/4,
                    "key-based seed=" + std::to_string(seed));
    }
  }
}

TEST(ChaseCoreParity, RandomKeyBasedWithConstants) {
  // Constants make FD clashes (empty query) reachable.
  ChaseLimits limits;
  limits.max_conjuncts = 4000;
  for (uint64_t seed = 61; seed <= 70; ++seed) {
    RunParityCase(seed, KeyBasedUniverse(1, 5, /*constant_prob=*/0.5),
                  ChaseVariant::kRequired, limits, /*level=*/4,
                  "key-based-constants seed=" + std::to_string(seed));
  }
}

TEST(ChaseCoreParity, FdOnlyFamilies) {
  ChaseLimits limits;
  for (uint64_t seed = 81; seed <= 85; ++seed) {
    UniverseBuilder build = [](Rng& rng, ChaseRun& run) {
      RandomCatalogParams cp;
      cp.num_relations = 3;
      *run.catalog = RandomCatalog(rng, cp);
      RandomKeyBasedParams kp;
      kp.key_size = 1;
      kp.num_inds = 0;
      *run.deps = RandomKeyBasedDeps(rng, *run.catalog, kp);
      RandomQueryParams qp;
      qp.num_conjuncts = 6;
      qp.num_vars = 4;
      qp.constant_prob = 0.4;
      run.queries.push_back(RandomQuery(rng, *run.catalog, *run.symbols, qp));
    };
    RunParityCase(seed, build, ChaseVariant::kRequired, limits, /*level=*/4,
                  "fd-only seed=" + std::to_string(seed));
  }
}

// A chase on a plan compiled ahead of time and shared — the engine's Σ
// record shape — is byte-identical to a chase that compiles its own, in
// every core, including the pruning counters the plan feeds. Two chases
// interleave level by level on the one plan (each in its own twin
// universe; the twins' catalogs are identical by construction, so one
// plan serves both), and each must match its private-plan twin.
TEST(ChaseCoreParity, SharedPlanMatchesPrivatePlan) {
  ChaseLimits limits;
  limits.max_conjuncts = 4000;
  uint64_t pruned = 0;  // the plan's pruning inputs were exercised
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const UniverseBuilder build =
        seed % 2 == 0 ? IndOnlyUniverse(6, 10 + seed * 4, 1 + seed % 3, 4)
                      : KeyBasedUniverse(1 + seed % 2, 6, 0.2);
    for (ChaseCoreMode mode : {ChaseCoreMode::kScalar, ChaseCoreMode::kBulk}) {
      ChaseLimits core_limits = limits;
      core_limits.core = mode;
      const std::string label = "seed=" + std::to_string(seed) + " core=" +
                                std::to_string(static_cast<int>(mode));
      ChaseRun priv[2] = {BuildUniverse(seed, build),
                          BuildUniverse(seed, build)};
      ChaseRun shared[2] = {BuildUniverse(seed, build),
                            BuildUniverse(seed, build)};
      auto plan = std::make_shared<const ChasePlan>(
          shared[0].catalog.get(),
          std::make_shared<const DependencySet>(*shared[0].deps));
      for (int i = 0; i < 2; ++i) {
        priv[i].chase = std::make_unique<Chase>(
            priv[i].catalog.get(), priv[i].symbols.get(), priv[i].deps.get(),
            ChaseVariant::kRequired, core_limits);
        shared[i].chase = std::make_unique<Chase>(
            plan, shared[i].symbols.get(), ChaseVariant::kRequired,
            core_limits);
        ASSERT_TRUE(priv[i].chase->Init(priv[i].queries.at(0)).ok());
        ASSERT_TRUE(shared[i].chase->Init(shared[i].queries.at(0)).ok());
      }
      for (uint32_t level = 1; level <= 3; ++level) {
        for (int i = 0; i < 2; ++i) {
          priv[i].expand_status = priv[i].chase->ExpandToLevel(level).status();
          shared[i].expand_status =
              shared[i].chase->ExpandToLevel(level).status();
        }
      }
      for (int i = 0; i < 2; ++i) {
        const std::string run_label = label + " chase " + std::to_string(i);
        EXPECT_EQ(&shared[i].chase->plan(), plan.get());
        ExpectSameStatus(priv[i].expand_status, shared[i].expand_status,
                         run_label);
        ExpectIdenticalPrefixes(*priv[i].chase, *shared[i].chase, run_label);
        const ChaseStats& p = priv[i].chase->chase_stats();
        const ChaseStats& s = shared[i].chase->chase_stats();
        EXPECT_EQ(p.steps, s.steps) << run_label;
        EXPECT_EQ(p.inds_pruned, s.inds_pruned) << run_label;
        EXPECT_EQ(p.witness_groups_pruned, s.witness_groups_pruned)
            << run_label;
        EXPECT_EQ(priv[i].chase->used_inds(), shared[i].chase->used_inds())
            << run_label;
        pruned += s.inds_pruned;
      }
    }
  }
  EXPECT_GT(pruned, 0u);
}

// Paper scenarios, including the Figure 1 infinite chase truncated at
// several depths.
TEST(ChaseCoreParity, PaperScenarios) {
  struct Case {
    Scenario (*make)();
    const char* name;
  };
  const Case cases[] = {{&EmpDepScenario, "emp-dep"},
                        {&Fig1Scenario, "fig1"},
                        {&Section4Scenario, "section4"},
                        {&KeyBasedEmpDepScenario, "key-based-emp-dep"}};
  for (const Case& c : cases) {
    Scenario probe = c.make();
    for (size_t qi = 0; qi < probe.queries.size(); ++qi) {
      for (ChaseVariant variant :
           {ChaseVariant::kRequired, ChaseVariant::kOblivious}) {
        for (uint32_t level : {1u, 3u, 6u}) {
          ChaseLimits limits;
          limits.max_conjuncts = 100000;
          Scenario a = c.make();
          Scenario b = c.make();
          limits.core = ChaseCoreMode::kScalar;
          Chase scalar(a.catalog.get(), a.symbols.get(), &a.deps, variant,
                       limits);
          ASSERT_TRUE(scalar.Init(a.queries[qi]).ok());
          Status s_status = scalar.ExpandToLevel(level).status();
          limits.core = ChaseCoreMode::kBulk;
          Chase bulk(b.catalog.get(), b.symbols.get(), &b.deps, variant,
                     limits);
          ASSERT_TRUE(bulk.Init(b.queries[qi]).ok());
          Status b_status = bulk.ExpandToLevel(level).status();
          const std::string label = std::string(c.name) + " q" +
                                    std::to_string(qi) + " level " +
                                    std::to_string(level);
          ExpectSameStatus(s_status, b_status, label);
          ExpectIdenticalPrefixes(scalar, bulk, label);
        }
      }
    }
  }
}

// Limit hits must leave identical partial prefixes and identical errors.
TEST(ChaseCoreParity, ResourceLimitParity) {
  for (size_t max_conjuncts : {2u, 5u, 9u}) {
    ChaseLimits limits;
    limits.max_conjuncts = max_conjuncts;
    Scenario a = Fig1Scenario();
    Scenario b = Fig1Scenario();
    limits.core = ChaseCoreMode::kScalar;
    Chase scalar(a.catalog.get(), a.symbols.get(), &a.deps,
                 ChaseVariant::kRequired, limits);
    ASSERT_TRUE(scalar.Init(a.queries[0]).ok());
    Status s_status = scalar.ExpandToLevel(30).status();
    limits.core = ChaseCoreMode::kBulk;
    Chase bulk(b.catalog.get(), b.symbols.get(), &b.deps,
               ChaseVariant::kRequired, limits);
    ASSERT_TRUE(bulk.Init(b.queries[0]).ok());
    Status b_status = bulk.ExpandToLevel(30).status();
    const std::string label =
        "fig1 max_conjuncts=" + std::to_string(max_conjuncts);
    EXPECT_EQ(s_status.code(), StatusCode::kResourceExhausted) << label;
    ExpectSameStatus(s_status, b_status, label);
    ExpectIdenticalPrefixes(scalar, bulk, label);
  }
  for (size_t max_steps : {1u, 4u, 11u}) {
    ChaseLimits limits;
    limits.max_steps = max_steps;
    Scenario a = Fig1Scenario();
    Scenario b = Fig1Scenario();
    limits.core = ChaseCoreMode::kScalar;
    Chase scalar(a.catalog.get(), a.symbols.get(), &a.deps,
                 ChaseVariant::kRequired, limits);
    ASSERT_TRUE(scalar.Init(a.queries[0]).ok());
    Status s_status = scalar.ExpandToLevel(30).status();
    limits.core = ChaseCoreMode::kBulk;
    Chase bulk(b.catalog.get(), b.symbols.get(), &b.deps,
               ChaseVariant::kRequired, limits);
    ASSERT_TRUE(bulk.Init(b.queries[0]).ok());
    Status b_status = bulk.ExpandToLevel(30).status();
    const std::string label = "fig1 max_steps=" + std::to_string(max_steps);
    ExpectSameStatus(s_status, b_status, label);
    ExpectIdenticalPrefixes(scalar, bulk, label);
  }
}

// Incremental deepening through the bulk core must land on the same prefix
// as one deep scalar expansion (ExpandToLevel is resumable in both cores).
TEST(ChaseCoreParity, ResumabilityParity) {
  ChaseLimits limits;
  limits.max_conjuncts = 100000;
  Scenario a = Fig1Scenario();
  Scenario b = Fig1Scenario();
  limits.core = ChaseCoreMode::kScalar;
  Chase scalar(a.catalog.get(), a.symbols.get(), &a.deps,
               ChaseVariant::kRequired, limits);
  ASSERT_TRUE(scalar.Init(a.queries[0]).ok());
  ASSERT_TRUE(scalar.ExpandToLevel(5).ok());
  limits.core = ChaseCoreMode::kBulk;
  Chase bulk(b.catalog.get(), b.symbols.get(), &b.deps,
             ChaseVariant::kRequired, limits);
  ASSERT_TRUE(bulk.Init(b.queries[0]).ok());
  for (uint32_t level = 1; level <= 5; ++level) {
    ASSERT_TRUE(bulk.ExpandToLevel(level).ok());
  }
  ExpectIdenticalPrefixes(scalar, bulk, "fig1 resumed vs direct");
}

// The bulk core must actually run set-at-a-time: segments built, batches
// swept, and segment provenance agreeing with the per-conjunct records.
TEST(ChaseCoreParity, BulkStatsAndSegmentProvenance) {
  Scenario s = Fig1Scenario();
  ChaseLimits limits;
  limits.core = ChaseCoreMode::kBulk;
  Chase bulk(s.catalog.get(), s.symbols.get(), &s.deps,
             ChaseVariant::kRequired, limits);
  ASSERT_TRUE(bulk.Init(s.queries[0]).ok());
  ASSERT_TRUE(bulk.ExpandToLevel(4).ok());
  const ChaseStats& stats = bulk.chase_stats();
  EXPECT_GT(stats.bulk_batches, 0u);
  EXPECT_GT(stats.bulk_ind_applications, 0u);
  EXPECT_GT(stats.segments_built, 0u);
  EXPECT_GE(stats.max_batch_rows, 1u);
  EXPECT_EQ(stats.segments_built, bulk.segments().segments().size());
  size_t minted_via_segments = 0;
  for (const ColumnSegment& seg : bulk.segments().segments()) {
    ASSERT_GT(seg.rows(), 0u);
    minted_via_segments += seg.rows();
    for (size_t r = 0; r < seg.rows(); ++r) {
      const ChaseConjunct* c = bulk.ConjunctById(seg.minted_ids[r]);
      ASSERT_NE(c, nullptr);
      EXPECT_EQ(c->level, seg.level);
      // Mint-time provenance: parent_ind always survives merges; the
      // mint-time fact is reconstructable column-wise.
      std::optional<SegmentEdge> edge = bulk.segments().EdgeOf(c->id);
      ASSERT_TRUE(edge.has_value());
      EXPECT_EQ(edge->ind_index, seg.ind_index);
      EXPECT_EQ(edge->source_id, seg.source_ids[r]);
      EXPECT_EQ(seg.RowFact(r).relation, seg.relation);
    }
  }
  // Every non-root conjunct was minted through a segment.
  size_t non_roots = 0;
  for (const ChaseConjunct& c : bulk.conjuncts()) {
    if (c.parent.has_value()) ++non_roots;
  }
  EXPECT_EQ(minted_via_segments, non_roots);

  // Scalar core: no segments.
  Scenario s2 = Fig1Scenario();
  limits.core = ChaseCoreMode::kScalar;
  Chase scalar(s2.catalog.get(), s2.symbols.get(), &s2.deps,
               ChaseVariant::kRequired, limits);
  ASSERT_TRUE(scalar.Init(s2.queries[0]).ok());
  ASSERT_TRUE(scalar.ExpandToLevel(4).ok());
  EXPECT_TRUE(scalar.segments().empty());
  EXPECT_EQ(scalar.chase_stats().segments_built, 0u);
  EXPECT_EQ(scalar.chase_stats().bulk_batches, 0u);
}

// An FD merge inside a level: the second S mint of SameFdKeyScenario
// merges into the first, which is where the bulk core aborts its sweep and
// rebuilds its witness groups. And Fig1 expanded to level 4 in one call.
TEST(ChaseCoreParity, MergeInsideSweepAndFig1Level4) {
  ChaseRun merged =
      RunParityCase(0, ScenarioUniverse(&SameFdKeyScenario),
                    ChaseVariant::kOblivious, ChaseLimits{}, /*level=*/1,
                    "same-fd-key merge");
  EXPECT_TRUE(merged.chase->used_fds().at(0));  // the merge fired
  RunParityCase(0, ScenarioUniverse(&Fig1Scenario), ChaseVariant::kRequired,
                ChaseLimits{}, /*level=*/4, "fig1 level 4");
}

// --- Engine-level parity: verdicts and certificates ------------------------

struct EngineUniverse {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<SymbolTable> symbols;
  std::unique_ptr<DependencySet> deps;
  std::vector<ConjunctiveQuery> queries;
  std::unique_ptr<ContainmentEngine> engine;
};

EngineUniverse MakeEngineUniverse(uint64_t seed, ChaseCoreMode mode,
                                  bool key_based) {
  EngineUniverse u;
  u.catalog = std::make_unique<Catalog>();
  u.symbols = std::make_unique<SymbolTable>();
  u.deps = std::make_unique<DependencySet>();
  Rng rng(seed);
  RandomCatalogParams cp;
  cp.num_relations = 4;
  cp.min_arity = 2;
  cp.max_arity = 3;
  *u.catalog = RandomCatalog(rng, cp);
  if (key_based) {
    RandomKeyBasedParams kp;
    kp.key_size = 1;
    kp.num_inds = 4;
    *u.deps = RandomKeyBasedDeps(rng, *u.catalog, kp);
  } else {
    RandomIndParams ip;
    ip.count = 6;
    ip.width = 1;
    *u.deps = RandomIndOnlyDeps(rng, *u.catalog, ip);
  }
  RandomQueryParams qp;
  qp.num_conjuncts = 4;
  qp.num_vars = 5;
  qp.num_dist_vars = 1;
  qp.name_prefix = "q";
  u.queries.push_back(RandomQuery(rng, *u.catalog, *u.symbols, qp));
  // A positive instance by construction (Σ ⊨ Q ⊆∞ planted) and an unrelated
  // random query (usually negative).
  Result<ConjunctiveQuery> planted = PlantedSuperQuery(
      rng, u.queries[0], *u.deps, *u.symbols, /*extra_conjuncts=*/2,
      /*chase_depth=*/2);
  EXPECT_TRUE(planted.ok()) << planted.status().ToString();
  u.queries.push_back(std::move(*planted));
  qp.name_prefix = "r";
  qp.num_conjuncts = 3;
  u.queries.push_back(RandomQuery(rng, *u.catalog, *u.symbols, qp));

  EngineConfig config;
  config.containment.limits.core = mode;
  config.containment.limits.max_conjuncts = 20000;
  u.engine = std::make_unique<ContainmentEngine>(u.catalog.get(),
                                                 u.symbols.get(), config);
  return u;
}

TEST(ChaseCoreParity, EngineVerdictsAndCertificates) {
  for (uint64_t seed = 101; seed <= 106; ++seed) {
    for (bool key_based : {false, true}) {
      EngineUniverse scalar =
          MakeEngineUniverse(seed, ChaseCoreMode::kScalar, key_based);
      EngineUniverse bulk =
          MakeEngineUniverse(seed, ChaseCoreMode::kBulk, key_based);
      const std::pair<size_t, size_t> asks[] = {
          {0, 1}, {0, 2}, {1, 0}, {2, 0}, {1, 2}};
      for (const auto& [qi, pi] : asks) {
        const std::string label = "seed=" + std::to_string(seed) +
                                  (key_based ? " key-based" : " ind-only") +
                                  " ask=" + std::to_string(qi) + "⊆" +
                                  std::to_string(pi);
        SCOPED_TRACE(label);
        Result<EngineVerdict> vs = scalar.engine->Check(
            scalar.queries[qi], scalar.queries[pi], *scalar.deps);
        Result<EngineVerdict> vb = bulk.engine->Check(
            bulk.queries[qi], bulk.queries[pi], *bulk.deps);
        ASSERT_EQ(vs.ok(), vb.ok());
        if (!vs.ok()) {
          EXPECT_EQ(vs.status().code(), vb.status().code());
          continue;
        }
        EXPECT_EQ(vs->report.contained, vb->report.contained);
        EXPECT_EQ(vs->report.chase_outcome, vb->report.chase_outcome);
        EXPECT_EQ(vs->report.chase_conjuncts, vb->report.chase_conjuncts);
        EXPECT_EQ(vs->report.chase_levels, vb->report.chase_levels);
        EXPECT_EQ(vs->report.witness_max_level, vb->report.witness_max_level);
        EXPECT_EQ(vs->report.level_bound, vb->report.level_bound);
        EXPECT_EQ(vs->strategy, vb->strategy);

        Result<EngineOutcome> cs =
            DecideCertified(*scalar.engine, scalar.queries[qi],
                            scalar.queries[pi], *scalar.deps);
        Result<EngineOutcome> cb = DecideCertified(
            *bulk.engine, bulk.queries[qi], bulk.queries[pi], *bulk.deps);
        ASSERT_EQ(cs.ok(), cb.ok());
        if (!cs.ok()) {
          EXPECT_EQ(cs.status().code(), cb.status().code());
          continue;
        }
        ASSERT_EQ(cs->certificate.has_value(), cb->certificate.has_value());
        if (cs->certificate.has_value()) {
          // Twin universes name symbols identically, so the rendered proofs
          // must match byte for byte — and each must verify in its own
          // universe.
          EXPECT_EQ(
              cs->certificate->ToString(*scalar.catalog, *scalar.symbols),
              cb->certificate->ToString(*bulk.catalog, *bulk.symbols));
          EXPECT_TRUE(VerifyCertificate(*cb->certificate, bulk.queries[qi],
                                        bulk.queries[pi], *bulk.deps,
                                        *bulk.symbols)
                          .ok());
        }
      }
      // The work the engines did must agree step for step; only the bulk
      // engine builds segments.
      const EngineStats ss = scalar.engine->stats();
      const EngineStats sb = bulk.engine->stats();
      EXPECT_EQ(ss.chase_steps, sb.chase_steps);
      EXPECT_EQ(ss.segments_built, 0u);
      EXPECT_EQ(ss.bulk_ind_applications, 0u);
      if (sb.chase_steps > 0 && !key_based) {
        EXPECT_GT(sb.bulk_ind_applications, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace cqchase
