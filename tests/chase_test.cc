#include "chase/chase.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "chase/chase_graph.h"
#include "core/homomorphism.h"
#include "cq/cq_parser.h"
#include "deps/deps_parser.h"
#include "gen/scenarios.h"

namespace cqchase {
namespace {

// --- FD chase rule --------------------------------------------------------

class FdChaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddRelation("R", {"a", "b"}).ok());
  }
  Catalog catalog_;
  SymbolTable symbols_;
};

TEST_F(FdChaseTest, MergesVariablesLexicographicallyFirstSurvives) {
  // R(x,y), R(x,z) under R:1->2 merges y and z; y was interned first, so y
  // survives.
  ConjunctiveQuery q =
      *ParseQuery(catalog_, symbols_, "ans(x) :- R(x, y), R(x, z)");
  DependencySet deps = *ParseDependencies(catalog_, "R: 1 -> 2");
  Result<Chase> chase =
      BuildChase(q, deps, symbols_, ChaseVariant::kRequired, ChaseLimits{});
  ASSERT_TRUE(chase.ok()) << chase.status();
  EXPECT_EQ(chase->outcome(), ChaseOutcome::kSaturated);
  std::vector<Fact> facts = chase->AliveFacts();
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(symbols_.Name(facts[0].terms[1]), "y");
}

TEST_F(FdChaseTest, ConstantBeatsVariable) {
  ConjunctiveQuery q =
      *ParseQuery(catalog_, symbols_, "ans(x) :- R(x, y), R(x, 'k')");
  DependencySet deps = *ParseDependencies(catalog_, "R: 1 -> 2");
  Chase chase = *BuildChase(q, deps, symbols_, ChaseVariant::kRequired,
                            ChaseLimits{});
  std::vector<Fact> facts = chase.AliveFacts();
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_TRUE(facts[0].terms[1].is_constant());
  EXPECT_EQ(symbols_.Name(facts[0].terms[1]), "k");
}

TEST_F(FdChaseTest, DistinguishedVariableBeatsNdv) {
  // "DVs are assumed always to precede NDVs in lexicographic order."
  // Intern the NDV before the DV to show kind, not age, decides.
  ConjunctiveQuery q =
      *ParseQuery(catalog_, symbols_, "ans(x, w) :- R(x, y), R(x, w)");
  DependencySet deps = *ParseDependencies(catalog_, "R: 1 -> 2");
  Chase chase = *BuildChase(q, deps, symbols_, ChaseVariant::kRequired,
                            ChaseLimits{});
  std::vector<Fact> facts = chase.AliveFacts();
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_TRUE(facts[0].terms[1].is_dist_var());
  EXPECT_EQ(symbols_.Name(facts[0].terms[1]), "w");
  // The merge is reflected in the summary row too.
  ASSERT_EQ(chase.summary().size(), 2u);
  EXPECT_EQ(symbols_.Name(chase.summary()[1]), "w");
}

TEST_F(FdChaseTest, ConstantClashYieldsEmptyQuery) {
  ConjunctiveQuery q =
      *ParseQuery(catalog_, symbols_, "ans(x) :- R(x, 'k1'), R(x, 'k2')");
  DependencySet deps = *ParseDependencies(catalog_, "R: 1 -> 2");
  Chase chase = *BuildChase(q, deps, symbols_, ChaseVariant::kRequired,
                            ChaseLimits{});
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kEmptyQuery);
  EXPECT_TRUE(chase.is_empty_query());
  EXPECT_TRUE(chase.AliveFacts().empty());
  EXPECT_TRUE(chase.AsQuery().is_empty_query());
}

TEST_F(FdChaseTest, CascadingMergesReachFixpoint) {
  // Two FDs interact: R:1->2 merges, which then enables a merge through a
  // second pair of conjuncts.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("R", {"a", "b", "c"}).ok());
  SymbolTable symbols;
  ConjunctiveQuery q = *ParseQuery(
      catalog, symbols, "ans(x) :- R(x, y, u), R(x, z, v), R(y, q, w)");
  DependencySet deps =
      *ParseDependencies(catalog, "R: 1 -> 2; R: 1 -> 3");
  Chase chase =
      *BuildChase(q, deps, symbols, ChaseVariant::kRequired, ChaseLimits{});
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kSaturated);
  // R(x,y,u) and R(x,z,v) collapse; nothing else shares a first column.
  EXPECT_EQ(chase.AliveFacts().size(), 2u);
  ConjunctiveQuery result = chase.AsQuery();
  EXPECT_TRUE(result.Validate().ok());
}

TEST_F(FdChaseTest, ResolveTermFollowsMergeChain) {
  ConjunctiveQuery q = *ParseQuery(
      catalog_, symbols_, "ans(x) :- R(x, y), R(x, z), R(x, w)");
  Term y = *symbols_.Find(TermKind::kNondistVar, "y");
  Term z = *symbols_.Find(TermKind::kNondistVar, "z");
  Term w = *symbols_.Find(TermKind::kNondistVar, "w");
  DependencySet deps = *ParseDependencies(catalog_, "R: 1 -> 2");
  Chase chase = *BuildChase(q, deps, symbols_, ChaseVariant::kRequired,
                            ChaseLimits{});
  EXPECT_EQ(chase.ResolveTerm(z), y);
  EXPECT_EQ(chase.ResolveTerm(w), y);
  EXPECT_EQ(chase.ResolveTerm(y), y);
}

// --- IND chase rule -------------------------------------------------------

TEST(IndChaseTest, CreatesWitnessConjunctWithFreshNdvs) {
  Scenario s = EmpDepScenario();
  // Chase Q2 = {(e): EMP(e,s,d)} with EMP[dept] ⊆ DEP[dept].
  Chase chase = *BuildChase(s.queries[1], s.deps, *s.symbols,
                            ChaseVariant::kRequired, ChaseLimits{});
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kSaturated);
  std::vector<Fact> facts = chase.AliveFacts();
  ASSERT_EQ(facts.size(), 2u);
  // The created DEP conjunct carries d in the dept column and a fresh NDV
  // in loc, at level 1.
  const ChaseConjunct* dep = nullptr;
  for (const ChaseConjunct* c : chase.AliveConjuncts()) {
    if (c->fact.relation == 1) dep = c;
  }
  ASSERT_NE(dep, nullptr);
  EXPECT_EQ(dep->level, 1u);
  EXPECT_EQ(dep->fact.terms[0],
            *s.symbols->Find(TermKind::kNondistVar, "d"));
  EXPECT_TRUE(dep->fact.terms[1].is_nondist_var());
  ASSERT_TRUE(s.symbols->Provenance(dep->fact.terms[1]).has_value());
  EXPECT_EQ(s.symbols->Provenance(dep->fact.terms[1])->level, 1u);
}

TEST(IndChaseTest, RequiredRuleSkipsWhenWitnessExists) {
  Scenario s = EmpDepScenario();
  // Q1 already contains the DEP conjunct: nothing to do.
  Chase chase = *BuildChase(s.queries[0], s.deps, *s.symbols,
                            ChaseVariant::kRequired, ChaseLimits{});
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kSaturated);
  EXPECT_EQ(chase.AliveFacts().size(), 2u);
  // The redundancy is recorded as a cross arc.
  ASSERT_EQ(chase.arcs().size(), 1u);
  EXPECT_TRUE(chase.arcs()[0].cross);
}

TEST(IndChaseTest, ObliviousRuleAppliesAnyway) {
  Scenario s = EmpDepScenario();
  Chase chase = *BuildChase(s.queries[0], s.deps, *s.symbols,
                            ChaseVariant::kOblivious, ChaseLimits{});
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kSaturated);
  // O-chase creates a second DEP conjunct with a fresh loc NDV.
  EXPECT_EQ(chase.AliveFacts().size(), 3u);
}

// --- Figure 1 -------------------------------------------------------------

TEST(Fig1Test, RChaseLevelProfile) {
  Scenario s = Fig1Scenario();
  ChaseLimits limits;
  limits.max_level = 6;
  Chase chase(s.catalog.get(), s.symbols.get(), &s.deps,
              ChaseVariant::kRequired, limits);
  ASSERT_TRUE(chase.Init(s.queries[0]).ok());
  Result<ChaseOutcome> outcome = chase.ExpandToLevel(6);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(*outcome, ChaseOutcome::kTruncated);  // infinite chase
  // Level 0: R(a,b,c). Level 1: T(a,_) and S(a,c,_). Level 2+: alternating
  // single conjuncts R, S, R, ... (T hits a cross arc each time).
  EXPECT_EQ(chase.CountAtLevel(0), 1u);
  EXPECT_EQ(chase.CountAtLevel(1), 2u);
  EXPECT_EQ(chase.CountAtLevel(2), 1u);
  EXPECT_EQ(chase.CountAtLevel(3), 1u);
  EXPECT_EQ(chase.CountAtLevel(4), 1u);
  // Cross arcs exist (deep R-conjuncts find the old T witness).
  bool has_cross = false;
  for (const ChaseArc& arc : chase.arcs()) has_cross |= arc.cross;
  EXPECT_TRUE(has_cross);
}

TEST(Fig1Test, OChaseGrowsFasterThanRChase) {
  Scenario so = Fig1Scenario();
  ChaseLimits limits;
  limits.max_level = 5;
  Chase ochase(so.catalog.get(), so.symbols.get(), &so.deps,
               ChaseVariant::kOblivious, limits);
  ASSERT_TRUE(ochase.Init(so.queries[0]).ok());
  ASSERT_TRUE(ochase.ExpandToLevel(5).ok());

  Scenario sr = Fig1Scenario();
  Chase rchase(sr.catalog.get(), sr.symbols.get(), &sr.deps,
               ChaseVariant::kRequired, limits);
  ASSERT_TRUE(rchase.Init(sr.queries[0]).ok());
  ASSERT_TRUE(rchase.ExpandToLevel(5).ok());

  // The O-chase re-creates T conjuncts the R-chase short-circuits with cross
  // arcs, so its prefix is strictly larger.
  EXPECT_GT(ochase.AliveFacts().size(), rchase.AliveFacts().size());
  // No cross arcs in the oblivious graph here (every application is fresh).
  for (const ChaseArc& arc : ochase.arcs()) EXPECT_FALSE(arc.cross);
}

TEST(Fig1Test, BothChasesAreInfinite) {
  for (ChaseVariant variant :
       {ChaseVariant::kRequired, ChaseVariant::kOblivious}) {
    Scenario s = Fig1Scenario();
    ChaseLimits limits;
    limits.max_level = 12;
    Chase chase(s.catalog.get(), s.symbols.get(), &s.deps, variant, limits);
    ASSERT_TRUE(chase.Init(s.queries[0]).ok());
    Result<ChaseOutcome> outcome = chase.ExpandToLevel(12);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(*outcome, ChaseOutcome::kTruncated);
    EXPECT_GE(chase.MaxAliveLevel(), 12u);
  }
}

TEST(Fig1Test, DotAndTextRenderings) {
  Scenario s = Fig1Scenario();
  ChaseLimits limits;
  limits.max_level = 3;
  Chase chase(s.catalog.get(), s.symbols.get(), &s.deps,
              ChaseVariant::kRequired, limits);
  ASSERT_TRUE(chase.Init(s.queries[0]).ok());
  ASSERT_TRUE(chase.ExpandToLevel(3).ok());
  std::string dot = ChaseGraphToDot(chase);
  EXPECT_NE(dot.find("digraph chase"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // cross arc
  std::string text = ChaseGraphToText(chase);
  EXPECT_NE(text.find("level 0:"), std::string::npos);
  EXPECT_NE(text.find("R(a, b, c)"), std::string::npos);
}

// --- Engine mechanics -----------------------------------------------------

TEST(ChaseEngineTest, ExpandIsResumable) {
  Scenario a = Fig1Scenario();
  ChaseLimits limits;
  limits.max_level = 8;
  Chase stepwise(a.catalog.get(), a.symbols.get(), &a.deps,
                 ChaseVariant::kRequired, limits);
  ASSERT_TRUE(stepwise.Init(a.queries[0]).ok());
  ASSERT_TRUE(stepwise.ExpandToLevel(2).ok());
  ASSERT_TRUE(stepwise.ExpandToLevel(5).ok());

  Scenario b = Fig1Scenario();
  Chase direct(b.catalog.get(), b.symbols.get(), &b.deps,
               ChaseVariant::kRequired, limits);
  ASSERT_TRUE(direct.Init(b.queries[0]).ok());
  ASSERT_TRUE(direct.ExpandToLevel(5).ok());

  EXPECT_EQ(stepwise.ToString(), direct.ToString());
}

TEST(ChaseEngineTest, DeterministicAcrossIdenticalRuns) {
  Scenario a = Fig1Scenario();
  Scenario b = Fig1Scenario();
  ChaseLimits limits;
  limits.max_level = 4;
  Chase ca(a.catalog.get(), a.symbols.get(), &a.deps,
           ChaseVariant::kOblivious, limits);
  Chase cb(b.catalog.get(), b.symbols.get(), &b.deps,
           ChaseVariant::kOblivious, limits);
  ASSERT_TRUE(ca.Init(a.queries[0]).ok());
  ASSERT_TRUE(cb.Init(b.queries[0]).ok());
  ASSERT_TRUE(ca.ExpandToLevel(4).ok());
  ASSERT_TRUE(cb.ExpandToLevel(4).ok());
  EXPECT_EQ(ca.ToString(), cb.ToString());
}

TEST(ChaseEngineTest, ConjunctCapReportsResourceExhausted) {
  Scenario s = Fig1Scenario();
  ChaseLimits limits;
  limits.max_level = 1000;
  limits.max_conjuncts = 5;
  Chase chase(s.catalog.get(), s.symbols.get(), &s.deps,
              ChaseVariant::kRequired, limits);
  ASSERT_TRUE(chase.Init(s.queries[0]).ok());
  Result<ChaseOutcome> outcome = chase.ExpandToLevel(1000);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kResourceExhausted);
}

TEST(ChaseEngineTest, InitTwiceFails) {
  Scenario s = EmpDepScenario();
  Chase chase(s.catalog.get(), s.symbols.get(), &s.deps,
              ChaseVariant::kRequired, ChaseLimits{});
  ASSERT_TRUE(chase.Init(s.queries[0]).ok());
  EXPECT_EQ(chase.Init(s.queries[0]).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ChaseEngineTest, ChaseOfAChaseMintsAboveTheNdvsItCarries) {
  // A query built from a chase's facts carries that chase's NDVs. A chase
  // of it must mint above them, even with a lower NDV block free for reuse:
  // the FD rule's representative choice relies on fresh NDVs following
  // every term.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("R", {"a", "b"}).ok());
  ASSERT_TRUE(catalog.AddRelation("S", {"x", "y"}).ok());
  SymbolTable symbols;
  ConjunctiveQuery q = *ParseQuery(catalog, symbols, "ans(h) :- R(h, 'v')");
  DependencySet into_s = *ParseDependencies(catalog, "R[2] <= S[1]");
  DependencySet into_r = *ParseDependencies(catalog, "S[2] <= R[1]");
  auto earlier = std::make_unique<Chase>(
      *BuildChase(q, into_s, symbols, ChaseVariant::kRequired, ChaseLimits{}));
  Chase source =
      *BuildChase(q, into_s, symbols, ChaseVariant::kRequired, ChaseLimits{});
  earlier.reset();  // frees the NDV block below source's
  ConjunctiveQuery carried = source.AsQuery();
  std::set<Term> carried_terms;
  for (const Fact& f : carried.conjuncts()) {
    carried_terms.insert(f.terms.begin(), f.terms.end());
  }
  ASSERT_TRUE(SymbolTable::IsChaseRegionNdv(*carried_terms.rbegin()));

  Chase chase = *BuildChase(carried, into_r, symbols, ChaseVariant::kRequired,
                            ChaseLimits{});
  size_t fresh = 0;
  for (const Fact& f : chase.AliveFacts()) {
    for (Term t : f.terms) {
      if (carried_terms.count(t) != 0) continue;
      ++fresh;
      EXPECT_GT(t, *carried_terms.rbegin());
    }
  }
  EXPECT_EQ(fresh, 1u);  // R(n, n') for the carried S('v', n)
}

TEST(ChaseEngineTest, AsInstanceViewsChaseAsDatabase) {
  Scenario s = EmpDepScenario();
  Chase chase = *BuildChase(s.queries[1], s.deps, *s.symbols,
                            ChaseVariant::kRequired, ChaseLimits{});
  Instance db = chase.AsInstance();
  EXPECT_EQ(db.TotalTuples(), chase.AliveFacts().size());
  // Theorem 1's device: the chase, read as a database, satisfies Σ.
  EXPECT_TRUE(db.Satisfies(s.deps));
}

TEST(ChaseEngineTest, SaturatedChaseSatisfiesDependencies) {
  // Key-based scenario: chase of Q2 saturates and satisfies all of Σ.
  Scenario s = KeyBasedEmpDepScenario();
  Chase chase = *BuildChase(s.queries[1], s.deps, *s.symbols,
                            ChaseVariant::kRequired, ChaseLimits{});
  EXPECT_EQ(chase.outcome(), ChaseOutcome::kSaturated);
  EXPECT_TRUE(chase.AsInstance().Satisfies(s.deps));
}

// --- Lemma 2 and Lemma 6 --------------------------------------------------

TEST(Lemma2Test, KeyBasedRChaseFactorizes) {
  Scenario s = KeyBasedEmpDepScenario();
  for (const ConjunctiveQuery& q : s.queries) {
    Chase direct = *BuildChase(q, s.deps, *s.symbols,
                               ChaseVariant::kRequired, ChaseLimits{});
    Result<Chase> factored =
        FactorizedRChase(q, s.deps, *s.symbols, ChaseLimits{});
    ASSERT_TRUE(factored.ok()) << factored.status();
    EXPECT_TRUE(QueriesIsomorphic(direct.AsQuery(), factored->AsQuery()))
        << "direct:\n"
        << direct.ToString() << "factored:\n"
        << factored->ToString();
  }
}

TEST(Lemma6Test, KeyBasedSymbolsSpanAtMostOneLevel) {
  Scenario s = KeyBasedEmpDepScenario();
  ChaseLimits limits;
  limits.max_level = 8;
  for (const ConjunctiveQuery& q : s.queries) {
    Chase chase =
        *BuildChase(q, s.deps, *s.symbols, ChaseVariant::kRequired, limits);
    EXPECT_LE(MaxSymbolLevelSpan(chase), 1u);
  }
}

TEST(Lemma6Test, IndOnlyChaseCanSpanMoreThanOneLevel) {
  // Contrast: in the Fig. 1 IND-only chase the root symbol 'a' is copied
  // into every level, so the span grows with depth.
  Scenario s = Fig1Scenario();
  ChaseLimits limits;
  limits.max_level = 5;
  Chase chase(s.catalog.get(), s.symbols.get(), &s.deps,
              ChaseVariant::kRequired, limits);
  ASSERT_TRUE(chase.Init(s.queries[0]).ok());
  ASSERT_TRUE(chase.ExpandToLevel(5).ok());
  EXPECT_GT(MaxSymbolLevelSpan(chase), 1u);
}

}  // namespace
}  // namespace cqchase
