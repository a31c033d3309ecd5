// The ContainmentEngine's memoization layer: canonical keys are invariant
// under variable renaming and conjunct permutation (and only then), verdict
// caching hits on isomorphic re-asks and misses on Σ changes, chase prefixes
// are resumed across Q' variations, and — the soundness contract — verdicts
// with the cache on are identical to verdicts with it off, inline and over
// SubmitAll bursts.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/delta.h"
#include "base/rng.h"
#include "base/string_util.h"
#include "core/certificate.h"
#include "core/containment.h"
#include "cq/cq_parser.h"
#include "deps/deps_parser.h"
#include "engine/canonical.h"
#include "engine/engine.h"
#include "engine/lru_cache.h"
#include "gen/generators.h"
#include "gen/scenarios.h"
#include "submit_util.h"

namespace cqchase {
namespace {

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddRelation("R", {"a", "b"}).ok());
    ASSERT_TRUE(catalog_.AddRelation("S", {"x", "y"}).ok());
    deps_ = *ParseDependencies(catalog_, "R[2] <= S[1]");
  }

  ConjunctiveQuery Parse(const std::string& text) {
    Result<ConjunctiveQuery> q = ParseQuery(catalog_, symbols_, text);
    EXPECT_TRUE(q.ok()) << q.status();
    return *std::move(q);
  }

  Catalog catalog_;
  SymbolTable symbols_;
  DependencySet deps_;
};

// --- Canonical keys ----------------------------------------------------------

TEST_F(CacheTest, CanonicalKeyInvariantUnderRenamingAndPermutation) {
  ConjunctiveQuery a = Parse("ans(u) :- R(u, v), S(v, w)");
  ConjunctiveQuery renamed = Parse("ans(p) :- R(p, q), S(q, t)");
  ConjunctiveQuery permuted = Parse("ans(m) :- S(k, t2), R(m, k)");
  EXPECT_EQ(CanonicalQueryKey(a), CanonicalQueryKey(renamed));
  EXPECT_EQ(CanonicalQueryKey(a), CanonicalQueryKey(permuted));
}

TEST_F(CacheTest, CanonicalKeySeparatesStructurallyDifferentQueries) {
  ConjunctiveQuery joined = Parse("ans(u) :- R(u, v), S(v, w)");
  ConjunctiveQuery forked = Parse("ans(u2) :- R(u2, v2), S(w2, v2)");
  ConjunctiveQuery self = Parse("ans(u3) :- R(u3, u3), S(u3, w3)");
  ConjunctiveQuery constant = Parse("ans(u4) :- R(u4, '1'), S('1', w4)");
  EXPECT_NE(CanonicalQueryKey(joined), CanonicalQueryKey(forked));
  EXPECT_NE(CanonicalQueryKey(joined), CanonicalQueryKey(self));
  EXPECT_NE(CanonicalQueryKey(joined), CanonicalQueryKey(constant));
}

TEST_F(CacheTest, CanonicalKeySeparatesSplicedConstantNames) {
  // Constant names containing quote/comma sequences must not splice into
  // the key syntax: R("x','y", "z") and R("x", "y','z") are different
  // queries and need different keys.
  ConjunctiveQuery a(&catalog_, &symbols_);
  ConjunctiveQuery b(&catalog_, &symbols_);
  a.AddConjunct(Fact{0, {symbols_.InternConstant("x','y"),
                         symbols_.InternConstant("z")}});
  b.AddConjunct(Fact{0, {symbols_.InternConstant("x"),
                         symbols_.InternConstant("y','z")}});
  EXPECT_NE(CanonicalQueryKey(a), CanonicalQueryKey(b));
}

TEST_F(CacheTest, CanonicalSigmaKeyIsOrderInvariantAndContentSensitive) {
  DependencySet ab = *ParseDependencies(catalog_, "R[1] <= S[1]\nS: 1 -> 2");
  DependencySet ba = *ParseDependencies(catalog_, "S: 1 -> 2\nR[1] <= S[1]");
  DependencySet other = *ParseDependencies(catalog_, "R[2] <= S[1]\nS: 1 -> 2");
  EXPECT_EQ(CanonicalSigmaKey(ab), CanonicalSigmaKey(ba));
  EXPECT_NE(CanonicalSigmaKey(ab), CanonicalSigmaKey(other));
}

// Golden key bytes, captured from the colour-refinement labeller (key
// scheme 2). The persistent store and remote peers key verdicts by these
// exact strings, so any byte change must bump kCanonicalKeySchemeVersion;
// these pins catch an accidental one.
TEST_F(CacheTest, CanonicalTaskKeyBytesArePinned) {
  struct Golden {
    const char* name;
    ConjunctiveQuery q;
    ConjunctiveQuery q_prime;
    const char* sigma;
    ChaseVariant variant;
    std::string key;
  };
  std::vector<Golden> goldens;

  // Constants whose names hold quotes, commas and parentheses.
  Term u = symbols_.InternDistVar("gu");
  Term w = symbols_.InternNondistVar("gw");
  Term odd = symbols_.InternConstant("x','y(z)");
  Term plain = symbols_.InternConstant("42");
  ConjunctiveQuery odd_q(&catalog_, &symbols_);
  odd_q.AddConjunct(Fact{0, {u, odd}});
  odd_q.AddConjunct(Fact{1, {odd, w}});
  odd_q.AddConjunct(Fact{1, {plain, u}});
  odd_q.SetSummary({u, odd});
  ConjunctiveQuery odd_qp(&catalog_, &symbols_);
  odd_qp.AddConjunct(Fact{0, {u, odd}});
  odd_qp.SetSummary({u, odd});
  goldens.push_back(
      {"constants", odd_q, odd_qp, "R[2] <= S[1]", ChaseVariant::kRequired,
       R"(V1|S{I0[1,]<=1[0,];}|Q{(d0,c8#x','y(z)):R0(d0,c8#x','y(z));)"
       R"(R1(c8#x','y(z),n0);R1(c2#42,d0);}|=>|Q{(d0,c8#x','y(z)):)"
       R"(R0(d0,c8#x','y(z));})"});

  // An empty-marked (contradictory) Q.
  ConjunctiveQuery empty_q = Parse("ans(e1) :- R(e1, e2), S(e2, '7')");
  empty_q.MarkEmptyQuery();
  goldens.push_back(
      {"empty_q", empty_q, Parse("ans(e3) :- S(e3, e4)"), "R[2] <= S[1]",
       ChaseVariant::kRequired,
       R"(V1|S{I0[1,]<=1[0,];}|Q{!EMPTY(d0)}|=>|Q{(d0):R1(d0,n0);})"});

  // Repeated variables, within a conjunct and in the summary, and a cycle
  // of conjuncts that tie on their initial signatures.
  goldens.push_back(
      {"repeated_vars",
       Parse("ans(r1, r1) :- R(r1, r1), S(r1, r2), S(r2, r2), R(r2, r3), "
             "R(r3, r4), R(r4, r2)"),
       Parse("ans(r5, r5) :- R(r5, r6), S(r6, r6)"), "S[2] <= R[1]",
       ChaseVariant::kOblivious,
       R"(V0|S{I1[1,]<=0[0,];}|Q{(d0,d0):R0(n0,n1);R0(n2,n0);R0(n1,n2);)"
       R"(R0(d0,d0);R1(d0,n0);R1(n0,n0);}|=>|Q{(d0,d0):R0(d0,n0);)"
       R"(R1(n0,n0);})"});

  // An FD+IND Σ with several dependencies of each kind.
  goldens.push_back(
      {"fd_ind", Parse("ans(f1) :- R(f1, f2), S(f2, f3), S(f2, f4)"),
       Parse("ans(f5) :- R(f5, f6), S(f6, f6)"),
       "S: 1 -> 2\nR[2] <= S[1]\nR: 2 -> 1\nS[2] <= R[2]\n"
       "R[1, 2] <= S[2, 1]",
       ChaseVariant::kRequired,
       R"(V1|S{F0:1,>0;F1:0,>1;I0[0,1,]<=1[1,0,];I0[1,]<=1[0,];)"
       R"(I1[1,]<=0[1,];}|Q{(d0):R0(d0,n0);R1(n0,n1);R1(n0,n2);}|=>|)"
       R"(Q{(d0):R0(d0,n0);R1(n0,n0);})"});

  for (const Golden& g : goldens) {
    Result<DependencySet> deps = ParseDependencies(catalog_, g.sigma);
    ASSERT_TRUE(deps.ok()) << g.name << ": " << deps.status();
    EXPECT_EQ(CanonicalTaskKey(g.q, g.q_prime, *deps, g.variant), g.key)
        << g.name;
  }
}

// Σ with the same dependencies in reverse insertion order: the same
// canonical key, a different dependency numbering.
DependencySet Reversed(const Catalog& catalog, const DependencySet& deps) {
  DependencySet out;
  for (auto it = deps.fds().rbegin(); it != deps.fds().rend(); ++it) {
    EXPECT_TRUE(out.AddFd(catalog, *it).ok());
  }
  for (auto it = deps.inds().rbegin(); it != deps.inds().rend(); ++it) {
    EXPECT_TRUE(out.AddInd(catalog, *it).ok());
  }
  return out;
}

// Σs of every SigmaClass from the src/gen generators, drawn from seeds
// 1, 2, … until each class has shown up: per seed an empty Σ, an FD-only
// Σ, IND-only Σs of width 1 and 2, a key-based Σ, and key-based FDs mixed
// with random INDs (kAcyclicInd or kGeneral, by the INDs' reliance cycles).
struct GeneratedSigmas {
  Catalog catalog;
  std::vector<DependencySet> sigmas;
  std::set<SigmaClass> classes;

  GeneratedSigmas() {
    Rng catalog_rng(7);
    RandomCatalogParams cp;
    cp.num_relations = 3;
    cp.min_arity = 2;
    cp.max_arity = 3;
    catalog = RandomCatalog(catalog_rng, cp);
    for (uint64_t seed = 1; seed <= 200 && classes.size() < 7; ++seed) {
      Rng rng(seed);
      RandomKeyBasedParams kp;
      kp.num_inds = 2;
      const DependencySet key_based = RandomKeyBasedDeps(rng, catalog, kp);
      RandomIndParams w1;
      w1.count = 3;
      RandomIndParams w2;
      w2.count = 2;
      w2.width = 2;
      DependencySet mixed = key_based.FdsOnly();
      const DependencySet mixed_inds = RandomIndOnlyDeps(rng, catalog, w1);
      for (const InclusionDependency& ind : mixed_inds.inds()) {
        EXPECT_TRUE(mixed.AddInd(catalog, ind).ok());
      }
      for (DependencySet deps :
           {DependencySet(), key_based.FdsOnly(),
            RandomIndOnlyDeps(rng, catalog, w1),
            RandomIndOnlyDeps(rng, catalog, w2), key_based, mixed}) {
        classes.insert(AnalyzeSigma(deps, catalog).sigma_class);
        sigmas.push_back(std::move(deps));
      }
    }
  }
};

TEST(CanonicalKeyParityTest, RenderedSigmaFormMatchesOnEverySigmaClass) {
  GeneratedSigmas g;
  ASSERT_EQ(g.classes.size(), 7u) << "a SigmaClass never showed up";
  SymbolTable symbols;
  Rng rng(11);
  for (size_t i = 0; i < g.sigmas.size(); ++i) {
    const DependencySet& deps = g.sigmas[i];
    RandomQueryParams qp;
    qp.constant_prob = 0.2;
    qp.name_prefix = StrCat("l", i);
    const ConjunctiveQuery q = RandomQuery(rng, g.catalog, symbols, qp);
    qp.num_conjuncts = 2;
    qp.name_prefix = StrCat("r", i);
    const ConjunctiveQuery q_prime = RandomQuery(rng, g.catalog, symbols, qp);
    const std::string sigma_key = CanonicalSigmaKey(deps);
    EXPECT_EQ(sigma_key, CanonicalSigmaKey(Reversed(g.catalog, deps)));
    for (ChaseVariant v : {ChaseVariant::kOblivious, ChaseVariant::kRequired}) {
      EXPECT_EQ(CanonicalTaskKey(q, q_prime, sigma_key, v),
                CanonicalTaskKey(q, q_prime, deps, v))
          << "Σ #" << i;
    }
  }
}

// --- Verdict-cache behavior --------------------------------------------------

TEST_F(CacheTest, HitOnIsomorphicReAsk) {
  ContainmentEngine engine(&catalog_, &symbols_);
  ConjunctiveQuery q = Parse("ans(u) :- R(u, v)");
  ConjunctiveQuery qp = Parse("ans(u) :- R(u, v), S(v, w)");
  ConjunctiveQuery q_iso = Parse("ans(e) :- R(e, f)");
  ConjunctiveQuery qp_iso = Parse("ans(e) :- S(f, g), R(e, f)");

  Result<EngineVerdict> first = engine.Check(q, qp, deps_);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  Result<EngineVerdict> second = engine.Check(q_iso, qp_iso, deps_);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(first->report.contained, second->report.contained);
  EXPECT_TRUE(first->report.contained);  // the IND supplies the S conjunct

  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
}

TEST_F(CacheTest, MissOnSigmaChange) {
  ContainmentEngine engine(&catalog_, &symbols_);
  ConjunctiveQuery q = Parse("ans(u) :- R(u, v)");
  ConjunctiveQuery qp = Parse("ans(u) :- R(u, v), S(v, w)");
  DependencySet other = *ParseDependencies(catalog_, "R[1] <= S[1]");

  Result<EngineVerdict> first = engine.Check(q, qp, deps_);
  Result<EngineVerdict> second = engine.Check(q, qp, other);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cache_hit);
  EXPECT_TRUE(first->report.contained);
  EXPECT_FALSE(second->report.contained);  // wrong column: no S(v, _) arises
  EXPECT_EQ(engine.stats().cache_hits, 0u);
}

TEST_F(CacheTest, ChasePrefixReusedAcrossDifferentQPrimes) {
  EngineConfig config;
  config.route_streaming_single_conjunct = false;  // force the chase route
  ContainmentEngine engine(&catalog_, &symbols_, config);
  ConjunctiveQuery q = Parse("ans(u) :- R(u, v)");
  ConjunctiveQuery qp1 = Parse("ans(f) :- S(f, g)");
  ConjunctiveQuery qp2 = Parse("ans(e2) :- R(e2, f2), S(f2, g2)");

  ASSERT_TRUE(engine.Check(q, qp1, deps_).ok());
  ASSERT_TRUE(engine.Check(q, qp2, deps_).ok());
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.chases_built, 1u);
  EXPECT_GE(stats.chase_prefix_reuses, 1u);
}

TEST_F(CacheTest, ExhaustedCachedChaseStillYieldsContainedVerdict) {
  // A chase that tripped max_conjuncts gets re-cached; a later trivially-
  // contained ask that resumes it re-trips the sticky limit before its
  // first per-level search. The final-search-on-exhaustion path must still
  // find the witness, keeping cache-on verdicts identical to cache-off.
  DependencySet cyclic = *ParseDependencies(
      catalog_, "R[2] <= R[1]\nR[2] <= S[1]\nS[2] <= R[1]");
  ConjunctiveQuery q = Parse("ans(u) :- R(u, v), S(v, w)");
  ConjunctiveQuery absent = Parse("ans(e) :- R(e, '9')");
  ConjunctiveQuery trivial = Parse("ans(m) :- R(m, k)");

  EngineConfig config;
  config.containment.limits.max_conjuncts = 6;
  config.route_streaming_single_conjunct = false;  // force the chase route
  ContainmentEngine engine(&catalog_, &symbols_, config);

  Result<EngineVerdict> first = engine.Check(q, absent, cyclic);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kResourceExhausted);

  Result<EngineVerdict> second = engine.Check(q, trivial, cyclic);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->report.contained);
  EXPECT_GE(engine.stats().chase_prefix_reuses, 1u);
}

TEST_F(CacheTest, ClearCachesForgetsVerdicts) {
  ContainmentEngine engine(&catalog_, &symbols_);
  ConjunctiveQuery q = Parse("ans(u) :- R(u, v)");
  ConjunctiveQuery qp = Parse("ans(u) :- R(u, v), S(v, w)");
  ASSERT_TRUE(engine.Check(q, qp, deps_).ok());
  engine.ClearCaches();
  Result<EngineVerdict> again = engine.Check(q, qp, deps_);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->cache_hit);
}

// --- Cache on/off verdict identity across scenario bundles -------------------

TEST(CacheParityTest, IdenticalVerdictsWithCacheOnAndOffAcrossScenarios) {
  for (Scenario (*make)() : {EmpDepScenario, KeyBasedEmpDepScenario,
                             Fig1Scenario}) {
    Scenario s = make();
    EngineConfig off_config;
    off_config.enable_cache = false;
    ContainmentEngine on(s.catalog.get(), s.symbols.get());
    ContainmentEngine off(s.catalog.get(), s.symbols.get(), off_config);
    for (size_t i = 0; i < s.queries.size(); ++i) {
      for (size_t j = 0; j < s.queries.size(); ++j) {
        Result<EngineVerdict> a = on.Check(s.queries[i], s.queries[j], s.deps);
        Result<EngineVerdict> b = off.Check(s.queries[i], s.queries[j], s.deps);
        ASSERT_EQ(a.ok(), b.ok()) << "pair (" << i << "," << j << ")";
        if (!a.ok()) continue;
        EXPECT_EQ(a->report.contained, b->report.contained)
            << "pair (" << i << "," << j << ")";
        // Re-ask through the warmed cache: same verdict, now a hit.
        Result<EngineVerdict> again =
            on.Check(s.queries[i], s.queries[j], s.deps);
        ASSERT_TRUE(again.ok());
        EXPECT_TRUE(again->cache_hit);
        EXPECT_EQ(again->report.contained, a->report.contained);
      }
    }
  }
  // Generated tasks asked as renamed isomorphic copies: every copy after a
  // class's first is served from the cache, with the cache-off verdict.
  // Odd classes plant Q' inside a chase prefix of Q, so both answers occur.
  constexpr size_t kClasses = 4;
  constexpr size_t kCopies = 3;
  Rng rng(7);
  RandomCatalogParams cp;
  cp.num_relations = 4;
  cp.min_arity = 2;
  cp.max_arity = 3;
  const Catalog catalog = RandomCatalog(rng, cp);
  RandomIndParams ip;
  ip.count = 4;
  ip.width = 1;
  const DependencySet deps = RandomIndOnlyDeps(rng, catalog, ip);
  SymbolTable symbols;
  EngineConfig off_config;
  off_config.enable_cache = false;
  ContainmentEngine on(&catalog, &symbols);
  ContainmentEngine off(&catalog, &symbols, off_config);
  size_t contained = 0;
  for (size_t c = 0; c < kClasses; ++c) {
    for (size_t k = 0; k < kCopies; ++k) {
      // Re-seeding per copy reproduces class c's structure; the name prefix
      // makes the copy's variables fresh.
      Rng copy_rng(1000 + c);
      RandomQueryParams qp;
      qp.num_conjuncts = 6;
      qp.num_vars = 7;
      qp.name_prefix = StrCat("L", c, "v", k, "_");
      const ConjunctiveQuery q = RandomQuery(copy_rng, catalog, symbols, qp);
      std::optional<ConjunctiveQuery> q_prime;
      if (c % 2 == 1) {
        Result<ConjunctiveQuery> planted =
            PlantedSuperQuery(copy_rng, q, deps, symbols,
                              /*extra_conjuncts=*/2, /*chase_depth=*/2);
        if (planted.ok()) q_prime = *std::move(planted);
      }
      if (!q_prime.has_value()) {
        qp.num_conjuncts = 2;
        qp.num_vars = 4;
        qp.name_prefix = StrCat("R", c, "v", k, "_");
        q_prime = RandomQuery(copy_rng, catalog, symbols, qp);
      }
      const std::string where = StrCat("class ", c, " copy ", k);
      Result<EngineVerdict> a = on.Check(q, *q_prime, deps);
      Result<EngineVerdict> b = off.Check(q, *q_prime, deps);
      ASSERT_TRUE(a.ok() && b.ok()) << where;
      EXPECT_EQ(a->report.contained, b->report.contained) << where;
      EXPECT_EQ(a->cache_hit, k > 0) << where;
      if (k == 0 && a->report.contained) ++contained;
    }
  }
  EXPECT_GT(contained, 0u);
  EXPECT_LT(contained, kClasses);
  EXPECT_GE(on.stats().cache_hits, kClasses * (kCopies - 1));
}

// The differential contract over generated Σs of every decidable class,
// each asked in two dependency orders that share one Σ record and one chase
// prefix per Q: a caching engine serves exactly the cache-less verdicts on
// Check, Submit, SubmitAll and warm re-asks, and every certificate it
// returns verifies against the asker's own Σ.
TEST(CacheParityTest, CachingEngineMatchesCachelessAcrossSigmaOrders) {
  GeneratedSigmas g;
  SymbolTable symbols;
  EngineConfig off_config;
  off_config.enable_cache = false;
  EngineConfig on_config;
  on_config.executor_threads = 2;
  ContainmentEngine off(&g.catalog, &symbols, off_config);
  ContainmentEngine on(&g.catalog, &symbols, on_config);
  Rng rng(5);
  size_t contained = 0;
  size_t certified = 0;
  for (size_t i = 0; i < g.sigmas.size(); ++i) {
    const DependencySet& fwd = g.sigmas[i];
    if (!AnalyzeSigma(fwd, g.catalog).decidable) continue;
    const DependencySet rev = Reversed(g.catalog, fwd);
    RandomQueryParams qp;
    qp.num_conjuncts = 3;
    qp.name_prefix = StrCat("l", i);
    const ConjunctiveQuery q = RandomQuery(rng, g.catalog, symbols, qp);
    std::vector<ConjunctiveQuery> q_primes;
    for (size_t j = 0; j < 3; ++j) {
      Result<ConjunctiveQuery> planted =
          PlantedSuperQuery(rng, q, fwd, symbols, j, /*chase_depth=*/2);
      if (planted.ok()) q_primes.push_back(*std::move(planted));
      qp.num_conjuncts = 2;
      qp.name_prefix = StrCat("r", i, "_", j);
      q_primes.push_back(RandomQuery(rng, g.catalog, symbols, qp));
    }
    const bool certifiable = CertifiableSigma(fwd, g.catalog);
    for (const DependencySet* deps : {&fwd, &rev}) {
      std::vector<ContainmentRequest> burst;
      std::vector<bool> truths;
      for (const ConjunctiveQuery& q_prime : q_primes) {
        const std::string where =
            StrCat("Σ #", i, deps == &rev ? " rev" : " fwd", " Q' ",
                   q_prime.ToString());
        Result<EngineVerdict> truth = off.Check(q, q_prime, *deps);
        ASSERT_TRUE(truth.ok()) << where << ": " << truth.status();
        Result<EngineVerdict> checked = on.Check(q, q_prime, *deps);
        Result<EngineOutcome> submitted =
            on.Submit(ContainmentRequest::Borrow(q, q_prime, *deps)).Get();
        ASSERT_TRUE(checked.ok() && submitted.ok()) << where;
        EXPECT_EQ(checked->report.contained, truth->report.contained) << where;
        EXPECT_EQ(submitted->verdict.report.contained, truth->report.contained)
            << where;
        truths.push_back(truth->report.contained);
        burst.push_back(ContainmentRequest::Borrow(q, q_prime, *deps));
        if (!truth->report.contained) continue;
        ++contained;
        if (!certifiable) continue;
        Result<EngineOutcome> cert = DecideCertified(on, q, q_prime, *deps);
        ASSERT_TRUE(cert.ok() && cert->certificate.has_value()) << where;
        EXPECT_TRUE(
            VerifyCertificate(*cert->certificate, q, q_prime, *deps, symbols)
                .ok())
            << where;
        ++certified;
      }
      std::vector<EngineFuture<EngineOutcome>> futures =
          on.SubmitAll(std::move(burst));
      for (size_t j = 0; j < futures.size(); ++j) {
        Result<EngineOutcome> got = futures[j].Get();
        ASSERT_TRUE(got.ok()) << "Σ #" << i << " burst " << j;
        EXPECT_EQ(got->verdict.report.contained, truths[j])
            << "Σ #" << i << " burst " << j;
        EXPECT_TRUE(got->verdict.cache_hit) << "Σ #" << i << " burst " << j;
      }
    }
  }
  EXPECT_GT(contained, 0u);
  EXPECT_GT(certified, 0u);
  EXPECT_GT(on.stats().chase_prefix_reuses, 0u);
}

// --- Σ records: one per canonical Σ, shared by every dependency order --------

// Σ_fwd = [A⊆B, X⊆Y] and Σ_rev = [X⊆Y, A⊆B]: one canonical key, two IND
// numberings.
class ReorderedSigmaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const RelationId a = *catalog_.AddRelation("A", {"x", "y"});
    const RelationId b = *catalog_.AddRelation("B", {"x", "y"});
    const RelationId x = *catalog_.AddRelation("X", {"x", "y"});
    const RelationId y = *catalog_.AddRelation("Y", {"x", "y"});
    ASSERT_TRUE(fwd_.AddInd(catalog_, {a, {0}, b, {0}}).ok());
    ASSERT_TRUE(fwd_.AddInd(catalog_, {x, {0}, y, {0}}).ok());
    rev_ = Reversed(catalog_, fwd_);
    config_.route_streaming_single_conjunct = false;
    config_.executor_threads = 1;
  }

  ConjunctiveQuery Parse(const std::string& text) {
    Result<ConjunctiveQuery> q = ParseQuery(catalog_, symbols_, text);
    EXPECT_TRUE(q.ok()) << q.status();
    return *std::move(q);
  }

  Catalog catalog_;
  SymbolTable symbols_;
  DependencySet fwd_;
  DependencySet rev_;
  EngineConfig config_;
};

// A Σ_rev asker resuming the prefix Σ_fwd built gets a certificate whose
// steps cite Σ_rev's IND numbering.
TEST_F(ReorderedSigmaTest, CertificateFromAResumedPrefixCitesTheAskersInds) {
  ContainmentEngine engine(&catalog_, &symbols_, config_);
  const ConjunctiveQuery q = Parse("ans(x) :- A(x, y)");
  const ConjunctiveQuery one_b = Parse("ans(x) :- B(x, z)");
  const ConjunctiveQuery two_b = Parse("ans(x) :- B(x, z), B(x, w)");
  ASSERT_TRUE(engine.Check(q, one_b, fwd_).ok());

  Result<EngineOutcome> submitted = DecideCertified(engine, q, two_b, rev_);
  ASSERT_TRUE(submitted.ok() && submitted->certificate.has_value());
  ASSERT_FALSE(submitted->certificate->steps.empty());
  EXPECT_EQ(submitted->certificate->steps[0].ind_index, 1u);  // A⊆B in Σ_rev
  EXPECT_TRUE(
      VerifyCertificate(*submitted->certificate, q, two_b, rev_, symbols_)
          .ok());
  EXPECT_EQ(engine.stats().chases_built, 1u);
  EXPECT_EQ(engine.stats().chase_prefix_reuses, 1u);
}

// A fresh chase runs on the Σ record's copy, which keeps the order of the
// asker that built the record (here Σ_fwd); a Σ_rev certificate from it
// still cites Σ_rev's numbering.
TEST_F(ReorderedSigmaTest, CertificateFromTheRecordsCopyCitesTheAskersInds) {
  ContainmentEngine engine(&catalog_, &symbols_, config_);
  engine.Analyze(fwd_);  // the record now holds Σ_fwd's order
  const ConjunctiveQuery q = Parse("ans(x) :- A(x, y)");
  const ConjunctiveQuery qp = Parse("ans(x) :- B(x, z)");
  Result<EngineOutcome> cert = DecideCertified(engine, q, qp, rev_);
  ASSERT_TRUE(cert.ok() && cert->certificate.has_value());
  EXPECT_TRUE(
      VerifyCertificate(*cert->certificate, q, qp, rev_, symbols_).ok());
  EXPECT_EQ(engine.cache_sizes().sigma_entries, 1u);
}

// Every chase of a request with a Σ record runs on the record's compiled
// plan, whose IND numbering is that of whichever order built the record.
// Down each chase path — shared prefix, an unshared chase
// (chase_cache_capacity = 0) and the cache_chase_prefix=false probes of
// Minimize / IsNonMinimal — and for every (builder, asker) order pair,
// verdicts must equal a cache-less engine's and every certificate must
// verify against the asker's Σ.
TEST_F(ReorderedSigmaTest, EveryChasePathRunsOnTheRecordsPlan) {
  const ConjunctiveQuery q = Parse("ans(x, u) :- A(x, y), X(u, v)");
  const std::vector<ConjunctiveQuery> rhs = {
      Parse("ans(x, u) :- B(x, z), X(u, v)"),  // contained through A⊆B
      Parse("ans(x, u) :- A(x, y), Y(u, w)"),  // contained through X⊆Y
      Parse("ans(x, u) :- B(x, z), Y(u, w)"),  // contained through both
      Parse("ans(x, u) :- Y(x, z), X(u, v)"),  // not contained
  };
  const ConjunctiveQuery redundant =
      Parse("ans(x, u) :- A(x, y), B(x, z), X(u, v), Y(u, w)");
  const ConjunctiveQuery minimal = Parse("ans(x, u) :- A(x, y), X(u, v)");
  EngineConfig cacheless = config_;
  cacheless.enable_cache = false;
  ContainmentEngine truth(&catalog_, &symbols_, cacheless);
  EngineConfig unshared = config_;
  unshared.chase_cache_capacity = 0;

  for (const EngineConfig& config : {config_, unshared}) {
    for (const DependencySet* builder : {&fwd_, &rev_}) {
      for (const DependencySet* asker : {&fwd_, &rev_}) {
        SCOPED_TRACE(StrCat("chase_cache_capacity=",
                            config.chase_cache_capacity, " builder=",
                            builder == &fwd_ ? "fwd" : "rev", " asker=",
                            asker == &fwd_ ? "fwd" : "rev"));
        ContainmentEngine engine(&catalog_, &symbols_, config);
        engine.Analyze(*builder);  // the record takes the builder's order
        for (const ConjunctiveQuery& qp : rhs) {
          Result<EngineVerdict> want = truth.Check(q, qp, *asker);
          Result<EngineVerdict> got = engine.Check(q, qp, *asker);
          ASSERT_TRUE(want.ok() && got.ok());
          EXPECT_EQ(got->report.contained, want->report.contained);
          Result<EngineOutcome> cert = DecideCertified(engine, q, qp, *asker);
          ASSERT_TRUE(cert.ok()) << cert.status();
          ASSERT_EQ(cert->certificate.has_value(), want->report.contained);
          if (cert->certificate.has_value()) {
            EXPECT_TRUE(VerifyCertificate(*cert->certificate, q, qp, *asker,
                                          symbols_)
                            .ok());
          }
        }
        Result<MinimizeReport> minimized = engine.Minimize(redundant, *asker);
        Result<MinimizeReport> want_min = truth.Minimize(redundant, *asker);
        ASSERT_TRUE(minimized.ok() && want_min.ok());
        EXPECT_EQ(CanonicalQueryKey(minimized->query),
                  CanonicalQueryKey(want_min->query));
        EXPECT_EQ(CanonicalQueryKey(minimized->query),
                  CanonicalQueryKey(minimal));
        Result<bool> non_minimal = engine.IsNonMinimal(redundant, *asker);
        ASSERT_TRUE(non_minimal.ok());
        EXPECT_TRUE(*non_minimal);
        EXPECT_EQ(engine.cache_sizes().sigma_entries, 1u);
      }
    }
  }
}

// Σs differing only in insertion order share one record, and every verdict
// published under either is tagged with the asker's Σ fingerprint.
TEST_F(ReorderedSigmaTest, InsertionOrdersShareOneRecordAndItsFingerprint) {
  std::string dir = StrCat(::testing::TempDir(), "/cqchase_sigma_XXXXXX");
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  EngineConfig config = config_;
  config.tiers = {TierSpec::Lru(config.verdict_cache_capacity),
                  TierSpec::LocalStore(dir)};
  ContainmentEngine engine(&catalog_, &symbols_, config);
  ASSERT_NE(engine.store(), nullptr) << engine.store_status();
  const ConjunctiveQuery q = Parse("ans(x) :- A(x, y)");
  const ConjunctiveQuery one_b = Parse("ans(x) :- B(x, z)");
  const ConjunctiveQuery one_y = Parse("ans(x) :- Y(x, z)");
  ASSERT_TRUE(engine.Check(q, one_b, fwd_).ok());
  ASSERT_TRUE(engine.Check(q, one_y, rev_).ok());
  EXPECT_EQ(engine.cache_sizes().sigma_entries, 1u);
  EXPECT_EQ(engine.Analyze(rev_).sigma_class, SigmaClass::kIndOnlyW1);
  EXPECT_EQ(engine.cache_sizes().sigma_entries, 1u);

  const ChaseVariant variant = config.containment.variant;
  for (const auto& [q_prime, deps] :
       {std::pair(&one_b, &fwd_), std::pair(&one_y, &rev_)}) {
    std::optional<StoredVerdict> stored =
        engine.store()->Lookup(CanonicalTaskKey(q, *q_prime, *deps, variant));
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->sigma_fp, SigmaFingerprint(*deps));
  }
}

// --- LRU eviction and per-cache capacity knobs -------------------------------

TEST_F(CacheTest, VerdictCacheEvictsLeastRecentlyUsedNotOldest) {
  EngineConfig config;
  config.verdict_cache_capacity = 2;
  ContainmentEngine engine(&catalog_, &symbols_, config);
  ConjunctiveQuery qp = Parse("ans(p) :- R(p, p0)");

  // A enters first; under FIFO it would be the first casualty.
  ConjunctiveQuery a = Parse("ans(u) :- R(u, v), S(v, w)");
  ASSERT_TRUE(engine.Check(a, qp, deps_).ok());
  for (int i = 0; i < 6; ++i) {
    // Touch A, then insert a fresh key (distinct constant => distinct
    // canonical key). The insertion evicts the *previous* filler, never the
    // just-touched A.
    Result<EngineVerdict> again = engine.Check(a, qp, deps_);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->cache_hit) << "round " << i;
    ConjunctiveQuery filler =
        Parse(StrCat("ans(u", i, ") :- R(u", i, ", 'k", i, "')"));
    ASSERT_TRUE(engine.Check(filler, qp, deps_).ok());
    EXPECT_LE(engine.cache_sizes().verdict_entries, 2u);
  }
}

TEST_F(CacheTest, ChaseCacheEvictsLeastRecentlyUsedNotOldest) {
  EngineConfig config;
  config.verdict_cache_capacity = 0;  // force every check down to the chase
  config.chase_cache_capacity = 2;
  config.route_streaming_single_conjunct = false;
  ContainmentEngine engine(&catalog_, &symbols_, config);
  ConjunctiveQuery qp = Parse("ans(p) :- R(p, p0)");

  ConjunctiveQuery a = Parse("ans(u) :- R(u, v), S(v, w)");
  ASSERT_TRUE(engine.Check(a, qp, deps_).ok());
  const int kRounds = 5;
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(engine.Check(a, qp, deps_).ok());  // touches A's prefix
    ConjunctiveQuery filler =
        Parse(StrCat("ans(f", i, ") :- R(f", i, ", 'c", i, "'), S(f", i,
                     ", g", i, ")"));
    ASSERT_TRUE(engine.Check(filler, qp, deps_).ok());
    EXPECT_LE(engine.cache_sizes().chase_entries, 2u);
  }
  EngineStats stats = engine.stats();
  // A's chase was built once and resumed every round; FIFO eviction would
  // have rebuilt it each time the fillers cycled the cache.
  EXPECT_EQ(stats.chases_built, 1u + kRounds);
  EXPECT_EQ(stats.chase_prefix_reuses, static_cast<uint64_t>(kRounds));
}

TEST_F(CacheTest, ChaseCacheHammeredAtCapacityStaysBoundedAndConsistent) {
  // Regression for the old exclusive-checkout bookkeeping (O(n) fifo scan,
  // entries erased while in use): hammer acquire/release through a tiny
  // cache and require bounded size plus stable verdicts throughout.
  EngineConfig config;
  config.verdict_cache_capacity = 0;
  config.chase_cache_capacity = 4;
  config.route_streaming_single_conjunct = false;
  ContainmentEngine engine(&catalog_, &symbols_, config);
  ConjunctiveQuery qp = Parse("ans(p) :- R(p, p0), S(p0, p1)");

  std::vector<ConjunctiveQuery> qs;
  for (int i = 0; i < 12; ++i) {
    qs.push_back(Parse(StrCat("ans(h", i, ") :- R(h", i, ", 'v", i, "')")));
  }
  std::vector<bool> first_verdicts;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < qs.size(); ++i) {
      Result<EngineVerdict> v = engine.Check(qs[i], qp, deps_);
      ASSERT_TRUE(v.ok()) << "round " << round << " q " << i;
      if (round == 0) {
        first_verdicts.push_back(v->report.contained);
      } else {
        EXPECT_EQ(v->report.contained, first_verdicts[i])
            << "round " << round << " q " << i;
      }
      EXPECT_LE(engine.cache_sizes().chase_entries, 4u);
    }
  }
}

TEST_F(CacheTest, ParkedChasesDoNotStrandNdvBlocks) {
  // Every decision below parks its chase in the prefix cache, NDV blocks
  // and all. Evicting a chase frees its blocks for the next chase, so the
  // chase region stays within the blocks the cache (plus the one deciding
  // chase) holds, and the table region — the NDVs that live as long as the
  // table — stays within a block of what the table itself named.
  constexpr int kDecisions = 1000;
  std::vector<ConjunctiveQuery> qs;
  for (int i = 0; i < kDecisions; ++i) {
    qs.push_back(Parse(StrCat("ans(h", i, ") :- R(h", i, ", 'v", i, "')")));
  }
  ConjunctiveQuery qp = Parse("ans(p) :- R(p, p0), S(p0, p1)");

  EngineConfig config;  // default chase cache
  config.executor_threads = 1;
  ContainmentEngine engine(&catalog_, &symbols_, config);
  const uint64_t minted_before = symbols_.num_nondist_vars();
  for (const ConjunctiveQuery& q : qs) {
    Result<EngineOutcome> outcome =
        engine.Submit(ContainmentRequest::Borrow(q, qp, deps_)).Get();
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_TRUE(outcome->verdict.report.contained);
  }
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.chases_built, static_cast<uint64_t>(kDecisions));
  EXPECT_GE(symbols_.num_nondist_vars() - minted_before,
            static_cast<uint64_t>(kDecisions));
  EXPECT_LE(symbols_.ndv_high_water(),
            symbols_.num_nondist_vars() + SymbolTable::kNdvBlockSize);
  EXPECT_LE(symbols_.chase_ndv_slots(), (config.chase_cache_capacity + 2) *
                                            SymbolTable::kNdvBlockSize);
}

TEST_F(CacheTest, ChaseRegionIsTheSameAfterOneAndTenThousandColdDecisions) {
  // The chase region is bounded by the chases alive at once, not by the
  // decisions made: 9 000 more cold decisions, each minting NDVs into a
  // chase that is parked and later evicted, carve no further slots.
  constexpr int kFirst = 1000;
  constexpr int kTotal = 10000;
  ConjunctiveQuery qp = Parse("ans(p) :- R(p, p0), S(p0, p1)");
  EngineConfig config;  // default chase cache
  config.executor_threads = 1;
  ContainmentEngine engine(&catalog_, &symbols_, config);
  size_t slots_after_first = 0;
  for (int i = 0; i < kTotal; ++i) {
    ConjunctiveQuery q =
        Parse(StrCat("ans(h", i, ") :- R(h", i, ", 'v", i, "')"));
    Result<EngineOutcome> outcome =
        engine.Submit(ContainmentRequest::Borrow(q, qp, deps_)).Get();
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_TRUE(outcome->verdict.report.contained);
    if (i + 1 == kFirst) slots_after_first = symbols_.chase_ndv_slots();
  }
  EXPECT_EQ(engine.stats().chases_built, static_cast<uint64_t>(kTotal));
  EXPECT_GE(symbols_.num_nondist_vars(), static_cast<uint64_t>(kTotal));
  EXPECT_EQ(symbols_.chase_ndv_slots(), slots_after_first);
  EXPECT_LE(slots_after_first, (config.chase_cache_capacity + 2) *
                                   SymbolTable::kNdvBlockSize);
}

TEST_F(CacheTest, CertificateOutlivesItsChaseAndItsRecycledBlock) {
  // A certificate copies the provenance of the NDVs it cites: after its
  // chase is evicted and another chase mints into the same ids, it prints
  // the same bytes and still verifies.
  EngineConfig config;
  config.chase_cache_capacity = 1;
  config.executor_threads = 1;
  ContainmentEngine engine(&catalog_, &symbols_, config);
  ConjunctiveQuery q = Parse("ans(h) :- R(h, 'v')");
  ConjunctiveQuery qp = Parse("ans(p) :- R(p, p0), S(p0, p1)");
  Result<EngineOutcome> cert = DecideCertified(engine, q, qp, deps_);
  ASSERT_TRUE(cert.ok()) << cert.status();
  ASSERT_TRUE(cert->certificate.has_value());
  const ContainmentCertificate& c = *cert->certificate;
  ASSERT_EQ(c.steps.size(), 1u);
  const Term cited = c.steps[0].fact.terms[1];  // S('v', n)
  ASSERT_TRUE(SymbolTable::IsChaseRegionNdv(cited));
  const std::string text = c.ToString(catalog_, symbols_);
  EXPECT_NE(text.find(symbols_.Name(cited)), std::string::npos);

  // Churn under a Σ whose chase mints into column 0: each decision evicts
  // the previous chase (capacity 1) and reuses its block.
  DependencySet other = *ParseDependencies(catalog_, "R[1] <= S[2]");
  ConjunctiveQuery other_qp = Parse("ans(p) :- R(p, p0), S(p1, p)");
  for (int i = 0; i < 4; ++i) {
    ConjunctiveQuery churn =
        Parse(StrCat("ans(h", i, ") :- R(h", i, ", 'w", i, "')"));
    Result<EngineVerdict> v = engine.Check(churn, other_qp, other);
    ASSERT_TRUE(v.ok()) << v.status();
    ASSERT_TRUE(v->report.contained);
  }
  EXPECT_EQ(c.ToString(catalog_, symbols_), text);
  EXPECT_TRUE(VerifyCertificate(c, q, qp, deps_, symbols_).ok());
  // The block really was reused: the cited id now names the last churn
  // chase's NDV, which the table renders differently.
  EXPECT_EQ(symbols_.chase_ndv_slots(), SymbolTable::kNdvBlockSize);
  EXPECT_EQ(text.find(symbols_.Name(cited)), std::string::npos);
}

TEST(LruCacheTest, PutHandsBackWhatItEvicts) {
  LruCache<int> cache(2);
  EXPECT_TRUE(cache.Put("a", 1).empty());
  EXPECT_TRUE(cache.Put("b", 2).empty());
  ASSERT_NE(cache.Get("a"), nullptr);  // b is now least recent
  LruCache<int>::Entries evicted = cache.Put("c", 3);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted.front(), (std::pair<std::string, int>("b", 2)));
  evicted = cache.Put("a", 10);  // overwrite hands back the old value
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted.front().second, 1);
  EXPECT_EQ(*cache.Get("a"), 10);
  EXPECT_EQ(cache.size(), 2u);
  LruCache<int> off(0);
  evicted = off.Put("x", 7);  // capacity 0 stores nothing
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted.front().second, 7);
  EXPECT_EQ(off.size(), 0u);
}

TEST_F(CacheTest, StreamingDecisionsLeaveTheNameIndexAlone) {
  // The PSPACE streaming path mints its frontier NDVs through a shard like
  // the chase does: no name-index entry per NDV (the table only grows with
  // 24-byte slots) and the block tail returned at the end of each call.
  // Verdicts must match the iterative-deepening route on the same tasks.
  constexpr int kDecisions = 2000;
  ConjunctiveQuery qp = Parse("ans(p) :- S(p, p1)");
  std::vector<ConjunctiveQuery> qs;
  for (int i = 0; i < kDecisions; ++i) {
    // Even i: R('v', h) chases to S(h, n), contained at level 1.
    // Odd i: R(h, 'v') chases to S('v', n), which cannot reach h.
    qs.push_back(Parse(i % 2 == 0
                           ? StrCat("ans(h) :- R('v", i, "', h)")
                           : StrCat("ans(h) :- R(h, 'v", i, "')")));
  }

  EngineConfig config;
  config.executor_threads = 1;
  ContainmentEngine engine(&catalog_, &symbols_, config);
  EngineConfig deepening_config;
  deepening_config.route_streaming_single_conjunct = false;
  ContainmentEngine deepening(&catalog_, &symbols_, deepening_config);
  for (int i = 0; i < kDecisions; ++i) {
    Result<EngineOutcome> outcome =
        engine.Submit(ContainmentRequest::Borrow(qs[i], qp, deps_)).Get();
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_EQ(outcome->verdict.strategy,
              DecisionStrategy::kStreamingFrontier);
    EXPECT_FALSE(outcome->verdict.cache_hit);
    EXPECT_EQ(outcome->verdict.report.contained, i % 2 == 0) << "task " << i;
    Result<EngineVerdict> oracle = deepening.Check(qs[i], qp, deps_);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    EXPECT_EQ(outcome->verdict.report.contained, oracle->report.contained)
        << "task " << i;
  }
  EXPECT_EQ(symbols_.Find(TermKind::kNondistVar, "st#0"), std::nullopt);
  EXPECT_LE(symbols_.ndv_high_water(),
            symbols_.num_nondist_vars() + SymbolTable::kNdvBlockSize);
}

TEST_F(CacheTest, SigmaCacheSizesIndependentlyOfVerdictCache) {
  EngineConfig config;
  config.sigma_cache_capacity = 2;
  config.verdict_cache_capacity = 64;
  ContainmentEngine engine(&catalog_, &symbols_, config);
  std::vector<DependencySet> sigmas;
  sigmas.push_back(*ParseDependencies(catalog_, "R[1] <= S[1]"));
  sigmas.push_back(*ParseDependencies(catalog_, "R[2] <= S[1]"));
  sigmas.push_back(*ParseDependencies(catalog_, "R[2] <= S[2]"));
  sigmas.push_back(*ParseDependencies(catalog_, "S[1] <= R[1]"));
  for (const DependencySet& s : sigmas) engine.Analyze(s);
  EXPECT_EQ(engine.cache_sizes().sigma_entries, 2u);

  // The converse: a starved verdict cache must not constrain Σ analyses
  // (the old code evicted the sigma cache against verdict_cache_capacity).
  EngineConfig tight;
  tight.verdict_cache_capacity = 1;
  tight.sigma_cache_capacity = 64;
  ContainmentEngine tight_engine(&catalog_, &symbols_, tight);
  ConjunctiveQuery q = Parse("ans(u) :- R(u, v)");
  ConjunctiveQuery qp = Parse("ans(u) :- R(u, v), S(v, w)");
  for (const DependencySet& s : sigmas) {
    ASSERT_TRUE(tight_engine.Check(q, qp, s).ok());
  }
  EXPECT_EQ(tight_engine.cache_sizes().sigma_entries, sigmas.size());
  EXPECT_EQ(tight_engine.cache_sizes().verdict_entries, 1u);
}

// --- Minimization probes must not pollute the chase-prefix cache -------------

TEST(CacheProbeTest, MinimizeLeavesChaseCacheEmpty) {
  // Each candidate probe chases a one-shot query whose exact key never
  // repeats; caching those prefixes would pin up to chase_cache_capacity
  // dead chases. Tagged non-cacheable, minimization must leave the chase
  // cache empty while still warming the verdict cache.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("R", {"a", "b"}).ok());
  ASSERT_TRUE(catalog.AddRelation("S", {"x", "y"}).ok());
  SymbolTable symbols;
  DependencySet deps = *ParseDependencies(catalog, "R[2] <= S[1]");
  Result<ConjunctiveQuery> q = ParseQuery(
      catalog, symbols,
      "ans(u) :- R(u, v), S(v, w), S(v, w2), R(u, v2), S(v2, w3)");
  ASSERT_TRUE(q.ok());

  ContainmentEngine engine(&catalog, &symbols);
  Result<MinimizeReport> report = engine.Minimize(*q, deps);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->containment_checks, 0u);
  EXPECT_EQ(engine.cache_sizes().chase_entries, 0u);
  EXPECT_GT(engine.cache_sizes().verdict_entries, 0u);
}

// --- The optimizer's minimization through the warm engine --------------------

TEST(CacheMinimizeTest, MinimizeVerdictsUnchangedByCaching) {
  Scenario s = EmpDepScenario();
  EngineConfig off_config;
  off_config.enable_cache = false;
  ContainmentEngine on(s.catalog.get(), s.symbols.get());
  ContainmentEngine off(s.catalog.get(), s.symbols.get(), off_config);
  Result<MinimizeReport> a = on.Minimize(s.queries[0], s.deps);
  Result<MinimizeReport> b = off.Minimize(s.queries[0], s.deps);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->removed_conjuncts, b->removed_conjuncts);
  EXPECT_EQ(a->containment_checks, b->containment_checks);
  EXPECT_EQ(a->query.ToString(), b->query.ToString());
  EXPECT_EQ(a->removed_conjuncts, 1u);  // the DEP join goes
}

}  // namespace
}  // namespace cqchase
