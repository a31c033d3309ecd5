// Σ reliance analysis (analysis/reliance.h): hand-built graphs with known
// edges and cycles, agreement with the relation-level IND-graph analysis, the kAcyclicInd decision procedure checked
// differentially against the semi-decision oracle on randomized acyclic
// families, and the bulk core's reliance pruning proved byte-identical to
// the unpruned scalar oracle.
#include <gtest/gtest.h>

#include "analysis/reliance.h"
#include "base/rng.h"
#include "base/string_util.h"
#include "chase/chase.h"
#include "core/homomorphism.h"
#include "cq/cq_parser.h"
#include "deps/deps_parser.h"
#include "engine/engine.h"
#include "gen/generators.h"
#include "gen/scenarios.h"

namespace cqchase {
namespace {

// --- Hand-built edge structure -----------------------------------------------

// A ⊆ B ⊆ C with an FD on C: the canonical acyclic FD+IND mix.
class ChainWithFdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddRelation("A", {"a1", "a2"}).ok());
    ASSERT_TRUE(catalog_.AddRelation("B", {"b1", "b2"}).ok());
    ASSERT_TRUE(catalog_.AddRelation("C", {"c1", "c2"}).ok());
    // ind0: A[1] <= B[1], ind1: B[1] <= C[2], fd0: C: 1 -> 2. The IND into
    // C's non-key column makes Σ not key-based, so only the reliance
    // analysis rescues it from kGeneral.
    deps_ = *ParseDependencies(catalog_,
                               "A[1] <= B[1]\nB[1] <= C[2]\nC: 1 -> 2");
  }
  Catalog catalog_;
  DependencySet deps_;
  SymbolTable symbols_;
};

TEST_F(ChainWithFdTest, KnownRelianceEdges) {
  SigmaGraph g(deps_, catalog_);
  ASSERT_EQ(g.num_inds(), 2u);
  ASSERT_EQ(g.num_fds(), 1u);
  const uint32_t ind0 = 0;
  const uint32_t ind1 = 1;
  const uint32_t fd0 = 2;
  // Positive: ind0 mints B facts (ind1's input); ind1 mints C facts (fd0's
  // relation).
  EXPECT_TRUE(g.HasEdge(ind0, ind1, RelianceKind::kPositive));
  EXPECT_TRUE(g.HasEdge(ind1, fd0, RelianceKind::kPositive));
  // Interference: a merge on C rewrites ind1's witness pool and fd0's own
  // relation.
  EXPECT_TRUE(g.HasEdge(fd0, ind1, RelianceKind::kInterference));
  EXPECT_TRUE(g.HasEdge(fd0, fd0, RelianceKind::kInterference));
  // No reliance the other way down the chain, and the FD cannot disturb an
  // IND that touches neither side of C.
  EXPECT_FALSE(g.HasEdge(ind1, ind0, RelianceKind::kPositive));
  EXPECT_FALSE(g.HasEdge(ind0, fd0, RelianceKind::kPositive));
  EXPECT_FALSE(g.HasEdge(fd0, ind0, RelianceKind::kInterference));
  EXPECT_EQ(g.edges().size(), 4u);
}

TEST_F(ChainWithFdTest, FdCycleLeavesIndSubgraphAcyclic) {
  SigmaGraph g(deps_, catalog_);
  // ind1 <-> fd0 form a cycle (positive ind1->fd0, interference fd0->ind1),
  // but the FD entanglement does not disturb the IND-only subgraph: still
  // acyclic, critical path = the two-IND chain.
  ASSERT_TRUE(g.IndSubgraphAcyclic());
  EXPECT_EQ(*g.IndCriticalPath(), 2u);
}

TEST_F(ChainWithFdTest, ClassifiesAsAcyclicIndAndDecides) {
  SigmaAnalysis a = AnalyzeSigma(deps_, catalog_);
  EXPECT_EQ(a.sigma_class, SigmaClass::kAcyclicInd);
  EXPECT_TRUE(a.decidable);
  EXPECT_TRUE(a.finitely_controllable);
  ASSERT_TRUE(a.graph != nullptr);
  EXPECT_EQ(a.acyclic_ind_depth, std::optional<uint32_t>(2));

  // The engine decides with semi-decision OFF — before the reliance
  // analysis this Σ fell to kGeneral and Check returned kUnimplemented.
  ContainmentEngine engine(&catalog_, &symbols_);
  ConjunctiveQuery q = *ParseQuery(catalog_, symbols_, "ans(u) :- A(u, v)");
  ConjunctiveQuery in = *ParseQuery(catalog_, symbols_, "ans(p) :- B(p, w)");
  ConjunctiveQuery out = *ParseQuery(catalog_, symbols_, "ans(p) :- A(p, p)");
  EXPECT_EQ(engine.RouteOf(in, deps_),
            std::optional<DecisionStrategy>(
                DecisionStrategy::kIterativeDeepening));

  Result<EngineVerdict> contained = engine.Check(q, in, deps_);
  ASSERT_TRUE(contained.ok()) << contained.status();
  EXPECT_EQ(contained->sigma_class, SigmaClass::kAcyclicInd);
  EXPECT_TRUE(contained->report.contained);

  Result<EngineVerdict> not_contained = engine.Check(q, out, deps_);
  ASSERT_TRUE(not_contained.ok()) << not_contained.status();
  EXPECT_FALSE(not_contained->report.contained);
  // The reported bound is the reliance critical path, not Lemma 5's
  // |Q'|·|Σ|·(W+1)^W.
  EXPECT_EQ(not_contained->report.level_bound, 2u);
}

TEST(RelianceGraphTest, SelfLoopIndIsCyclic) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("R", {"a", "b"}).ok());
  DependencySet deps = *ParseDependencies(catalog, "R[2] <= R[1]");
  SigmaGraph g(deps, catalog);
  EXPECT_TRUE(g.HasEdge(0, 0, RelianceKind::kPositive));
  EXPECT_FALSE(g.IndSubgraphAcyclic());
}

TEST(RelianceGraphTest, TwoIndCycleIsCyclic) {
  Scenario s = Fig1Scenario();  // R -> S -> R at the relation level
  SigmaGraph g(s.deps, *s.catalog);
  EXPECT_FALSE(g.IndSubgraphAcyclic());
  EXPECT_EQ(g.IndCriticalPath(), std::nullopt);
  // Section 4's Σ (self-loop IND + FD on one relation) stays kGeneral: the
  // reliance analysis must not over-claim the fragment.
  Scenario general = Section4Scenario();
  SigmaAnalysis a = AnalyzeSigma(general.deps, *general.catalog);
  EXPECT_EQ(a.sigma_class, SigmaClass::kGeneral);
  EXPECT_FALSE(a.decidable);
}

TEST(RelianceGraphTest, FdOnlyAndEmptySigma) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("R", {"a", "b"}).ok());
  SigmaGraph empty(DependencySet(), catalog);
  EXPECT_TRUE(empty.IndSubgraphAcyclic());
  EXPECT_EQ(*empty.IndCriticalPath(), 0u);
  EXPECT_TRUE(empty.edges().empty());

  DependencySet fd = *ParseDependencies(catalog, "R: 1 -> 2");
  SigmaGraph g(fd, catalog);
  EXPECT_EQ(*g.IndCriticalPath(), 0u);
  // The FD self-loop (merges can re-enable the same FD) is the only edge.
  ASSERT_EQ(g.edges().size(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 0, RelianceKind::kInterference));
}

// --- Agreement with the relation-level IND graph -----------------------------

class RelianceVsIndGraph : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RelianceVsIndGraph, AcyclicityAndDepthMatchMaxIndPathLength) {
  // The dependency-level reliance subgraph and the relation-level IND graph
  // must agree exactly: a relation path of L arcs is a reliance chain of L
  // INDs and vice versa.
  Rng rng(GetParam());
  RandomCatalogParams cp;
  cp.num_relations = 5;
  cp.min_arity = 2;
  cp.max_arity = 3;
  Catalog catalog = RandomCatalog(rng, cp);
  RandomIndParams ip;
  ip.count = 5;
  ip.width = 1;
  DependencySet deps = RandomIndOnlyDeps(rng, catalog, ip);
  SigmaGraph g(deps, catalog);
  std::optional<uint32_t> relation_path = deps.MaxIndPathLength(catalog);
  EXPECT_EQ(g.IndSubgraphAcyclic(), relation_path.has_value());
  if (relation_path.has_value() && !deps.inds().empty()) {
    EXPECT_EQ(*g.IndCriticalPath(), *relation_path);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelianceVsIndGraph,
                         ::testing::Range<uint64_t>(1, 26));

// --- Differential: kAcyclicInd verdict vs the semi-decision oracle -----------

class AcyclicFamilyDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AcyclicFamilyDifferential, MatchesScalarSemiDecisionOracle) {
  // Randomized acyclic FD+IND mixes: the kAcyclicInd decision (bulk core,
  // reliance bound, no semi-decision permission) must return exactly what
  // the scalar-core semi-decision oracle concludes when its chase happens
  // to saturate — which, on an acyclic Σ, it always does.
  Rng rng(GetParam());
  RandomCatalogParams cp;
  cp.num_relations = 5;
  cp.min_arity = 2;
  cp.max_arity = 3;
  Catalog catalog = RandomCatalog(rng, cp);
  // Acyclic by construction: every IND points from a lower-indexed relation
  // to a higher-indexed one, so the relation order is a topological order of
  // the IND graph and no rejection sampling is needed.
  DependencySet deps;
  for (int i = 0; i < 5; ++i) {
    InclusionDependency ind;
    ind.lhs_relation =
        static_cast<RelationId>(rng.Index(catalog.num_relations() - 1));
    ind.rhs_relation = static_cast<RelationId>(
        rng.Uniform(ind.lhs_relation + 1, catalog.num_relations() - 1));
    ind.lhs_columns = {
        static_cast<uint32_t>(rng.Index(catalog.arity(ind.lhs_relation)))};
    ind.rhs_columns = {
        static_cast<uint32_t>(rng.Index(catalog.arity(ind.rhs_relation)))};
    ASSERT_TRUE(deps.AddInd(catalog, ind).ok());
  }
  ASSERT_TRUE(deps.IndGraphAcyclic(catalog));
  // Entangle an FD on the last relation; skip the draws where the mix
  // happens to land back in a paper class.
  FunctionalDependency fd;
  fd.relation = static_cast<RelationId>(catalog.num_relations() - 1);
  fd.lhs = {0};
  fd.rhs = 1;
  ASSERT_TRUE(deps.AddFd(catalog, fd).ok());
  SigmaAnalysis a = AnalyzeSigma(deps, catalog);
  if (a.sigma_class != SigmaClass::kAcyclicInd) {
    GTEST_SKIP() << "draw fell into " << ToString(a.sigma_class);
  }

  SymbolTable symbols;
  RandomQueryParams qp;
  qp.num_conjuncts = 3;
  qp.num_vars = 5;
  qp.name_prefix = StrCat("q", GetParam(), "_");
  ConjunctiveQuery q = RandomQuery(rng, catalog, symbols, qp);
  qp.num_conjuncts = 2;
  qp.num_vars = 4;
  qp.name_prefix = StrCat("p", GetParam(), "_");
  ConjunctiveQuery q_prime = RandomQuery(rng, catalog, symbols, qp);

  ContainmentEngine decided(&catalog, &symbols);  // semi-decision OFF
  Result<EngineVerdict> verdict = decided.Check(q, q_prime, deps);
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_EQ(verdict->sigma_class, SigmaClass::kAcyclicInd);

  // Independent Theorem 1 oracle, bypassing the engine's classification
  // entirely: run the scalar chase to saturation (guaranteed finite on an
  // acyclic Σ — that is the claim under test) and search the homomorphism
  // directly. This is the semi-decision procedure in its raw form, minus
  // the budget caveat the saturation guarantee removes.
  ChaseLimits scalar_limits;
  scalar_limits.core = ChaseCoreMode::kScalar;
  Result<Chase> chase =
      BuildChase(q, deps, symbols, ChaseVariant::kRequired, scalar_limits);
  ASSERT_TRUE(chase.ok()) << chase.status();
  bool reference = false;
  if (chase->is_empty_query()) {
    reference = true;  // Q unsatisfiable under Σ: contained in anything
  } else {
    ASSERT_EQ(chase->outcome(), ChaseOutcome::kSaturated);
    reference = FindHomomorphism(q_prime, chase->AliveFacts(),
                                 chase->summary())
                    .has_value();
  }
  EXPECT_EQ(verdict->report.contained, reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcyclicFamilyDifferential,
                         ::testing::Range<uint64_t>(1, 31));

// --- Pruning: unreachable INDs, byte-identical chases ------------------------

TEST(ReliancePruningTest, PrunedBulkChaseIsByteIdenticalToScalar) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("A", {"a1", "a2"}).ok());
  ASSERT_TRUE(catalog.AddRelation("B", {"b1", "b2"}).ok());
  ASSERT_TRUE(catalog.AddRelation("D", {"d1", "d2"}).ok());
  ASSERT_TRUE(catalog.AddRelation("E", {"e1", "e2"}).ok());
  // Two INDs live (A -> B), two dead (a D <-> E cycle the query never
  // reaches) — each dead IND carries its own rhs projection, so their
  // witness-group indexes disappear along with them.
  DependencySet deps = *ParseDependencies(
      catalog, "A[1] <= B[1]\nA[2] <= B[2]\nD[1] <= E[1]\nE[1] <= D[1]");
  // Pruning must also keep an FD-bearing chase identical.
  DependencySet with_fd = deps;
  ASSERT_TRUE(
      with_fd.AddFd(catalog, FunctionalDependency{0, {0}, 1}).ok());

  for (const DependencySet* sigma : {&deps, &with_fd}) {
    SymbolTable symbols;
    ConjunctiveQuery q = *ParseQuery(
        catalog, symbols, "ans(u) :- A(u, v), A(u, w)");
    ChaseLimits scalar_limits;
    scalar_limits.core = ChaseCoreMode::kScalar;
    Result<Chase> scalar =
        BuildChase(q, *sigma, symbols, ChaseVariant::kRequired, scalar_limits);
    ASSERT_TRUE(scalar.ok()) << scalar.status();

    SymbolTable symbols_bulk;
    ConjunctiveQuery q_bulk = *ParseQuery(
        catalog, symbols_bulk, "ans(u) :- A(u, v), A(u, w)");
    ChaseLimits bulk_limits;
    bulk_limits.core = ChaseCoreMode::kBulk;
    Result<Chase> bulk = BuildChase(q_bulk, *sigma, symbols_bulk,
                                    ChaseVariant::kRequired, bulk_limits);
    ASSERT_TRUE(bulk.ok()) << bulk.status();

    // Byte-identical prefixes: same rendering, same outcome, same step
    // count — pruning removed only work that never happens in either core.
    EXPECT_EQ(scalar->ToString(), bulk->ToString());
    EXPECT_EQ(scalar->outcome(), bulk->outcome());
    EXPECT_EQ(scalar->steps(), bulk->steps());
    // And the pruning actually fired: the D/E INDs and their witness
    // group(s) were never materialized.
    EXPECT_EQ(bulk->chase_stats().inds_pruned, 2u);
    EXPECT_GE(bulk->chase_stats().witness_groups_pruned, 1u);
    EXPECT_EQ(scalar->chase_stats().inds_pruned, 0u);
  }
}

// --- Fingerprint -------------------------------------------------------------

TEST(RelianceGraphTest, FingerprintStableAndStructureSensitive) {
  // The fingerprint covers the graph structure (node counts, edges, the
  // critical path), so rebuilding from the same Σ is stable and any change
  // to the interaction structure shows up.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("A", {"x"}).ok());
  ASSERT_TRUE(catalog.AddRelation("B", {"x"}).ok());
  DependencySet one = *ParseDependencies(catalog, "A[1] <= B[1]");
  DependencySet chain = *ParseDependencies(catalog, "A[1] <= B[1]\nB[1] <= A[1]");
  EXPECT_EQ(SigmaGraph(one, catalog).Fingerprint(),
            SigmaGraph(one, catalog).Fingerprint());
  EXPECT_NE(SigmaGraph(one, catalog).Fingerprint(),
            SigmaGraph(chain, catalog).Fingerprint());
  EXPECT_NE(SigmaGraph(one, catalog).Fingerprint(),
            SigmaGraph(DependencySet(), catalog).Fingerprint());
}

}  // namespace
}  // namespace cqchase
