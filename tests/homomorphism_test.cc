#include "core/homomorphism.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "base/string_util.h"
#include "chase/chase.h"
#include "cq/cq_parser.h"
#include "gen/generators.h"

namespace cqchase {
namespace {

class HomomorphismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddRelation("E", {"src", "dst"}).ok());
  }

  ConjunctiveQuery Q(std::string_view text) {
    Result<ConjunctiveQuery> q = ParseQuery(catalog_, symbols_, text);
    EXPECT_TRUE(q.ok()) << q.status();
    return std::move(q).value();
  }

  Catalog catalog_;
  SymbolTable symbols_;
};

TEST_F(HomomorphismTest, IdentityAlwaysExists) {
  ConjunctiveQuery q = Q("ans(x) :- E(x, y), E(y, z)");
  EXPECT_TRUE(FindQueryHomomorphism(q, q).has_value());
}

TEST_F(HomomorphismTest, PathMapsIntoTriangleClassic) {
  // Chandra–Merlin folklore: a path of any length maps into a cycle; the
  // Boolean 2-path maps into the triangle.
  ConjunctiveQuery path = Q("ans() :- E(x, y), E(y, z)");
  ConjunctiveQuery triangle = Q("ans() :- E(a, b), E(b, cc), E(cc, a)");
  EXPECT_TRUE(FindQueryHomomorphism(path, triangle).has_value());
  // But a triangle does not map into a 2-path.
  EXPECT_FALSE(FindQueryHomomorphism(triangle, path).has_value());
}

TEST_F(HomomorphismTest, SummaryRowPinsDistinguishedVariables) {
  ConjunctiveQuery source = Q("ans(x) :- E(x, y)");
  // Target whose summary row is a *different* variable than its edge start.
  ConjunctiveQuery target = Q("ans(u) :- E(u, v), E(w, u)");
  std::optional<Homomorphism> h = FindQueryHomomorphism(source, target);
  ASSERT_TRUE(h.has_value());
  // x must map to u (the target summary), never to w.
  Term x = *symbols_.Find(TermKind::kDistVar, "x");
  Term u = *symbols_.Find(TermKind::kDistVar, "u");
  EXPECT_EQ(h->Apply(x), u);
}

TEST_F(HomomorphismTest, ConstantsMustMatchThemselves) {
  ConjunctiveQuery with_const = Q("ans() :- E(x, '7')");
  ConjunctiveQuery other_const = Q("ans() :- E(a, '8')");
  ConjunctiveQuery same_const = Q("ans() :- E(a, '7'), E(a, '8')");
  EXPECT_FALSE(FindQueryHomomorphism(with_const, other_const).has_value());
  EXPECT_TRUE(FindQueryHomomorphism(with_const, same_const).has_value());
}

TEST_F(HomomorphismTest, RepeatedVariablesConstrainImages) {
  ConjunctiveQuery self_loop = Q("ans() :- E(x, x)");
  ConjunctiveQuery plain_edge = Q("ans() :- E(a, b)");
  ConjunctiveQuery with_loop = Q("ans() :- E(a, b), E(b, b)");
  EXPECT_FALSE(FindQueryHomomorphism(self_loop, plain_edge).has_value());
  EXPECT_TRUE(FindQueryHomomorphism(self_loop, with_loop).has_value());
}

TEST_F(HomomorphismTest, SummaryConstantMismatchFails) {
  ConjunctiveQuery src = Q("ans('1') :- E(x, y)");
  ConjunctiveQuery dst = Q("ans('2') :- E(a, b)");
  EXPECT_FALSE(FindQueryHomomorphism(src, dst).has_value());
}

TEST_F(HomomorphismTest, ArityMismatchedSummariesFail) {
  ConjunctiveQuery src = Q("ans(x) :- E(x, y)");
  ConjunctiveQuery dst = Q("ans() :- E(a, b)");
  EXPECT_FALSE(FindQueryHomomorphism(src, dst).has_value());
}

TEST_F(HomomorphismTest, ConjunctImagesAreRecorded) {
  ConjunctiveQuery src = Q("ans() :- E(x, y)");
  ConjunctiveQuery dst = Q("ans() :- E(a, b), E(b, cc)");
  std::optional<Homomorphism> h = FindQueryHomomorphism(src, dst);
  ASSERT_TRUE(h.has_value());
  ASSERT_EQ(h->conjunct_images.size(), 1u);
  EXPECT_LT(h->conjunct_images[0], 2u);
}

TEST_F(HomomorphismTest, EmptyQuerySourceHasNoHomomorphism) {
  ConjunctiveQuery src = Q("ans(x) :- E(x, y)");
  src.MarkEmptyQuery();
  ConjunctiveQuery dst = Q("ans(a) :- E(a, b)");
  EXPECT_FALSE(FindQueryHomomorphism(src, dst).has_value());
}

TEST_F(HomomorphismTest, InjectiveModeRejectsCollapse) {
  // The 2-path maps onto a single edge only by collapsing y; injectively it
  // cannot.
  ConjunctiveQuery path2 = Q("ans() :- E(x, y), E(y, z)");
  ConjunctiveQuery loop = Q("ans() :- E(a, a)");
  EXPECT_TRUE(FindQueryHomomorphism(path2, loop).has_value());
  HomomorphismOptions inj;
  inj.injective = true;
  EXPECT_FALSE(FindQueryHomomorphism(path2, loop, inj).has_value());
}

TEST_F(HomomorphismTest, IsomorphismIsRenamingOnly) {
  ConjunctiveQuery a = Q("ans(x) :- E(x, y), E(y, x)");
  ConjunctiveQuery b = Q("ans(u) :- E(u, v), E(v, u)");
  ConjunctiveQuery c = Q("ans(u) :- E(u, u)");
  EXPECT_TRUE(QueriesIsomorphic(a, b));
  EXPECT_FALSE(QueriesIsomorphic(a, c));  // different conjunct counts
  // Same size but different shape.
  ConjunctiveQuery d = Q("ans(u) :- E(u, v), E(u, w)");
  EXPECT_FALSE(QueriesIsomorphic(a, d));
}

TEST_F(HomomorphismTest, InjectiveModeRespectsSourceConstants) {
  // A variable must not map onto a constant the source also uses.
  ConjunctiveQuery src = Q("ans() :- E(x, '7'), E('7', y)");
  ConjunctiveQuery dst = Q("ans() :- E('7', '7')");
  EXPECT_TRUE(FindQueryHomomorphism(src, dst).has_value());
  HomomorphismOptions inj;
  inj.injective = true;
  EXPECT_FALSE(FindQueryHomomorphism(src, dst, inj).has_value());
}

TEST_F(HomomorphismTest, LargerTargetSearch) {
  // A 3-path into a 6-cycle exists; a 3-cycle into a 6-cycle does not
  // (no odd cycle maps into an even cycle).
  ConjunctiveQuery path = Q("ans() :- E(p1, p2), E(p2, p3), E(p3, p4)");
  ConjunctiveQuery c6 = Q(
      "ans() :- E(c1, c2), E(c2, c3), E(c3, c4), E(c4, c5), E(c5, c6), "
      "E(c6, c1)");
  ConjunctiveQuery c3 = Q("ans() :- E(t1, t2), E(t2, t3), E(t3, t1)");
  EXPECT_TRUE(FindQueryHomomorphism(path, c6).has_value());
  EXPECT_FALSE(FindQueryHomomorphism(c3, c6).has_value());
  EXPECT_TRUE(FindQueryHomomorphism(c6, c3).has_value());
}

// --- HomomorphismTarget and the semi-naive pre-check ----------------------

// Brute force over every assignment of source conjuncts to target facts:
// does a homomorphism exist, and does one exist that sends some conjunct
// onto a fact at index >= first_new? Independent of the solver.
struct BruteForce {
  bool any = false;
  bool touching = false;
};

BruteForce BruteForceSearch(const ConjunctiveQuery& source,
                            const std::vector<Fact>& facts,
                            const std::vector<Term>& summary,
                            size_t first_new) {
  BruteForce out;
  const std::vector<Fact>& conjuncts = source.conjuncts();
  const size_t k = conjuncts.size();
  std::vector<size_t> choice(k, 0);
  if (source.summary().size() != summary.size()) return out;
  if (k > 0 && facts.empty()) return out;
  while (true) {
    std::unordered_map<Term, Term> binding;
    auto bind = [&](Term t, Term image) {
      if (t.is_constant()) return t == image;
      auto [it, inserted] = binding.emplace(t, image);
      return inserted || it->second == image;
    };
    bool ok = true;
    for (size_t i = 0; i < summary.size() && ok; ++i) {
      ok = bind(source.summary()[i], summary[i]);
    }
    bool touches = false;
    for (size_t c = 0; c < k && ok; ++c) {
      const Fact& pattern = conjuncts[c];
      const Fact& fact = facts[choice[c]];
      ok = pattern.relation == fact.relation &&
           pattern.terms.size() == fact.terms.size();
      for (size_t i = 0; i < pattern.terms.size() && ok; ++i) {
        ok = bind(pattern.terms[i], fact.terms[i]);
      }
      touches = touches || choice[c] >= first_new;
    }
    if (ok) {
      out.any = true;
      out.touching = out.touching || touches;
    }
    size_t pos = 0;
    while (pos < k && ++choice[pos] == facts.size()) choice[pos++] = 0;
    if (pos == k) break;
  }
  return out;
}

TEST(HomomorphismTargetTest, RandomizedAgreesWithOneShotSearchAndBruteForce) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("E", {"src", "dst"}).ok());
  ASSERT_TRUE(catalog.AddRelation("T", {"a", "b", "c"}).ok());
  SymbolTable symbols;
  std::vector<Term> source_terms;
  std::vector<Term> dist_vars;
  for (int i = 0; i < 2; ++i) {
    dist_vars.push_back(symbols.InternDistVar(StrCat("x", i)));
    source_terms.push_back(dist_vars.back());
  }
  for (int i = 0; i < 4; ++i) {
    source_terms.push_back(symbols.InternNondistVar(StrCat("y", i)));
  }
  std::vector<Term> target_terms;
  for (int i = 0; i < 4; ++i) {
    target_terms.push_back(symbols.InternNondistVar(StrCat("t", i)));
  }
  for (const char* c : {"1", "2"}) {
    source_terms.push_back(symbols.InternConstant(c));
    target_terms.push_back(symbols.InternConstant(c));
  }
  auto random_fact = [&](Rng& rng, const std::vector<Term>& pool) {
    Fact f;
    f.relation = static_cast<RelationId>(rng.Index(2));
    f.terms.resize(catalog.arity(f.relation));
    for (Term& t : f.terms) t = rng.Pick(pool);
    return f;
  };

  Rng rng(20);
  size_t found = 0;
  size_t touching = 0;
  size_t skippable = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    ConjunctiveQuery source(&catalog, &symbols);
    const size_t k = 1 + rng.Index(3);
    for (size_t i = 0; i < k; ++i) source.AddConjunct(random_fact(rng, source_terms));
    std::vector<Term> source_summary;
    const size_t arity = rng.Index(3);
    for (size_t i = 0; i < arity; ++i) source_summary.push_back(rng.Pick(dist_vars));
    source.SetSummary(source_summary);
    std::vector<Fact> facts;
    const size_t n = rng.Index(10);
    for (size_t i = 0; i < n; ++i) facts.push_back(random_fact(rng, target_terms));
    std::vector<Term> summary;
    for (size_t i = 0; i < arity; ++i) summary.push_back(rng.Pick(target_terms));
    const size_t first_new = rng.Index(n + 1);
    SCOPED_TRACE(StrCat("trial ", trial, ": ", k, " conjuncts, ", n,
                        " facts, first_new ", first_new));

    // The target is grown the way the chase loop grows it: the old facts,
    // a search, then the new facts.
    const FactTable table(facts);
    HomomorphismTarget target;
    std::vector<Fact> old_facts(facts.begin(), facts.begin() + first_new);
    for (size_t i = 0; i < first_new; ++i) {
      target.Append(table, static_cast<uint32_t>(i));
    }
    std::optional<Homomorphism> old_hom =
        FindHomomorphism(source, target, table, summary);
    std::optional<Homomorphism> old_one_shot =
        FindHomomorphism(source, old_facts, summary);
    ASSERT_EQ(old_hom.has_value(), old_one_shot.has_value());
    for (size_t i = first_new; i < n; ++i) {
      target.Append(table, static_cast<uint32_t>(i));
    }
    ASSERT_EQ(target.size(), facts.size());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(table[target.ids()[i]], facts[i]);
    }

    std::optional<Homomorphism> one_shot =
        FindHomomorphism(source, facts, summary);
    std::optional<Homomorphism> indexed =
        FindHomomorphism(source, target, table, summary);
    ASSERT_EQ(indexed.has_value(), one_shot.has_value());
    if (one_shot.has_value()) {
      EXPECT_EQ(indexed->mapping, one_shot->mapping);
      EXPECT_EQ(indexed->conjunct_images, one_shot->conjunct_images);
      ++found;
    }

    const BruteForce brute = BruteForceSearch(source, facts, summary, first_new);
    ASSERT_EQ(one_shot.has_value(), brute.any);
    const bool touches =
        HasHomomorphismTouching(source, target, table, summary, first_new);
    ASSERT_EQ(touches, brute.touching);
    touching += touches ? 1 : 0;
    // The pre-check's use: when the old facts hold no homomorphism, it
    // answers for the whole target.
    if (!old_hom.has_value()) {
      ASSERT_EQ(touches, one_shot.has_value());
      ++skippable;
    }
  }
  // The generator reaches every branch.
  EXPECT_GT(found, 100u);
  EXPECT_GT(touching, 100u);
  EXPECT_GT(skippable, 1000u);
}

// Targets grown by a real chase from src/gen's random Σ and queries, synced
// level by level the way Theorem 1's deepening loop syncs them (alive
// conjunct ids in (level, id) order, read in place from the chase's own
// storage, rebuilt after an FD merge). Every search over the grown target
// must equal a from-scratch search over the same facts copied out, the
// touching probe must agree with brute force, and one target serves many
// sources in turn, so no search may see another's leftover state.
TEST(HomomorphismTargetTest, ChaseGrownTargetsAgreeWithFromScratchSearch) {
  Rng rng(30);
  size_t found = 0;
  size_t touching = 0;
  size_t brute_checked = 0;
  size_t rebuilt = 0;
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(StrCat("trial ", trial));
    RandomCatalogParams cp;
    cp.num_relations = 3;
    cp.min_arity = 2;
    cp.max_arity = 3;
    Catalog catalog = RandomCatalog(rng, cp);
    SymbolTable symbols;
    DependencySet deps;
    if (trial % 2 == 0) {
      RandomIndParams ip;
      ip.count = 2 + rng.Index(2);
      deps = RandomIndOnlyDeps(rng, catalog, ip);
    } else {
      RandomKeyBasedParams kp;
      kp.num_inds = 2 + rng.Index(2);
      deps = RandomKeyBasedDeps(rng, catalog, kp);
    }
    RandomQueryParams qp;
    qp.num_conjuncts = 3;
    qp.num_vars = 3;
    qp.name_prefix = "q";
    const ConjunctiveQuery q = RandomQuery(rng, catalog, symbols, qp);
    std::vector<ConjunctiveQuery> sources;
    for (int i = 0; i < 4; ++i) {
      RandomQueryParams sp;
      sp.num_conjuncts = 1 + rng.Index(3);
      sp.num_vars = 3;
      sp.name_prefix = StrCat("s", i, "_");
      sources.push_back(RandomQuery(rng, catalog, symbols, sp));
    }
    Result<ConjunctiveQuery> planted =
        PlantedSuperQuery(rng, q, deps, symbols, 2, 3);
    if (planted.ok()) sources.push_back(*std::move(planted));

    ChaseLimits limits;
    limits.max_conjuncts = 400;
    Chase chase(&catalog, &symbols, &deps, ChaseVariant::kRequired, limits);
    ASSERT_TRUE(chase.Init(q).ok());
    HomomorphismTarget target;
    uint64_t synced_merges = 0;
    for (uint32_t level = 1; level <= 5 && !chase.is_empty_query();
         ++level) {
      if (!chase.ExpandToLevel(level).ok()) break;
      const std::vector<const ChaseConjunct*> alive = chase.AliveConjuncts();
      // Grow in place while the synced target is still a prefix of the
      // alive conjuncts with unchanged facts; rebuild otherwise.
      bool prefix = chase.chase_stats().fd_merges == synced_merges &&
                    target.size() <= alive.size();
      for (size_t i = 0; prefix && i < target.size(); ++i) {
        prefix = target.ids()[i] == alive[i]->id;
      }
      if (!prefix) {
        target.Clear();
        ++rebuilt;
      }
      synced_merges = chase.chase_stats().fd_merges;
      const size_t first_new = target.size();
      const FactTable table(chase.conjuncts(), &ChaseConjunct::fact);
      for (size_t i = first_new; i < alive.size(); ++i) {
        target.Append(table, static_cast<uint32_t>(alive[i]->id));
      }
      std::vector<Fact> facts;
      for (const ChaseConjunct* c : alive) facts.push_back(c->fact);

      for (const ConjunctiveQuery& source : sources) {
        SCOPED_TRACE(StrCat("level ", level, " source ", source.ToString()));
        std::optional<Homomorphism> one_shot =
            FindHomomorphism(source, facts, chase.summary());
        std::optional<Homomorphism> grown =
            FindHomomorphism(source, target, table, chase.summary());
        ASSERT_EQ(grown.has_value(), one_shot.has_value());
        if (one_shot.has_value()) {
          EXPECT_EQ(grown->mapping, one_shot->mapping);
          EXPECT_EQ(grown->conjunct_images, one_shot->conjunct_images);
          ++found;
        }
        const bool touches = HasHomomorphismTouching(
            source, target, table, chase.summary(), first_new);
        touching += touches ? 1 : 0;
        // Brute force enumerates |facts|^|conjuncts| assignments.
        double assignments = 1;
        for (size_t i = 0; i < source.conjuncts().size(); ++i) {
          assignments *= static_cast<double>(facts.size());
        }
        if (assignments > 30000) continue;
        const BruteForce brute =
            BruteForceSearch(source, facts, chase.summary(), first_new);
        ASSERT_EQ(one_shot.has_value(), brute.any);
        ASSERT_EQ(touches, brute.touching);
        ++brute_checked;
      }
    }
  }
  // The generator reaches every branch.
  EXPECT_GT(found, 150u);
  EXPECT_GT(touching, 50u);
  EXPECT_GT(brute_checked, 500u);
  EXPECT_GT(rebuilt, 0u);
}

TEST(HomomorphismTargetTest, ClearEmptiesTheIndex) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation("E", {"src", "dst"}).ok());
  SymbolTable symbols;
  ConjunctiveQuery source =
      *ParseQuery(catalog, symbols, "ans() :- E(x, y), E(y, x)");
  ConjunctiveQuery loop = *ParseQuery(catalog, symbols, "ans() :- E(a, a)");
  const FactTable table(loop.conjuncts());
  HomomorphismTarget target;
  target.Append(table, 0);
  EXPECT_TRUE(FindHomomorphism(source, target, table, {}).has_value());
  target.Clear();
  EXPECT_EQ(target.size(), 0u);
  EXPECT_FALSE(FindHomomorphism(source, target, table, {}).has_value());
  EXPECT_FALSE(HasHomomorphismTouching(source, target, table, {}, 0));
}

}  // namespace
}  // namespace cqchase
