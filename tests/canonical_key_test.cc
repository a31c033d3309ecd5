// Canonical query keys (engine/canonical.h), differentially: every renaming
// and conjunct order of a query gets one key, and two queries get equal keys
// exactly when a brute-force isomorphism search says they are isomorphic.
// A query whose tie search exhausts its budget still gets a deterministic,
// sound key, and the fallback is counted.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/string_util.h"
#include "engine/canonical.h"
#include "engine/engine.h"
#include "gen/generators.h"

namespace cqchase {
namespace {

class CanonicalKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = *catalog_.AddRelation("A", {"a"});
    r_ = *catalog_.AddRelation("R", {"a", "b"});
    s_ = *catalog_.AddRelation("S", {"a", "b"});
    t_ = *catalog_.AddRelation("T", {"a", "b", "c"});
    for (size_t i = 0; i < 8; ++i) {
      dv_pool_.push_back(symbols_.InternDistVar(StrCat("pd", i)));
    }
    for (size_t i = 0; i < 48; ++i) {
      ndv_pool_.push_back(symbols_.InternNondistVar(StrCat("pn", i)));
    }
    // Names that would splice into the key syntax without the length prefix.
    for (const char* name : {"x|y", "a,b", "it's", "f(x)", "|=>|", "k0"}) {
      odd_constants_.push_back(symbols_.InternConstant(name));
    }
  }

  ConjunctiveQuery Query(const std::vector<Fact>& facts,
                         std::vector<Term> summary = {}) {
    ConjunctiveQuery q(&catalog_, &symbols_);
    for (const Fact& f : facts) q.AddConjunct(f);
    q.SetSummary(std::move(summary));
    return q;
  }

  Term Ndv(const std::string& name) { return symbols_.InternNondistVar(name); }
  Term Dv(const std::string& name) { return symbols_.InternDistVar(name); }

  // A copy of `q` under a random kind-preserving injective renaming into
  // the pools, with its conjuncts in a random order.
  ConjunctiveQuery Scramble(const ConjunctiveQuery& q, Rng& rng) {
    std::vector<Term> dvs = dv_pool_;
    std::vector<Term> ndvs = ndv_pool_;
    std::shuffle(dvs.begin(), dvs.end(), rng.engine());
    std::shuffle(ndvs.begin(), ndvs.end(), rng.engine());
    std::map<Term, Term> renaming;
    for (Term v : q.Variables()) {
      std::vector<Term>& pool = v.is_dist_var() ? dvs : ndvs;
      EXPECT_FALSE(pool.empty()) << "query too large to scramble";
      if (pool.empty()) return q;
      renaming[v] = pool.back();
      pool.pop_back();
    }
    const auto rename = [&renaming](Term t) {
      return t.is_variable() ? renaming.at(t) : t;
    };
    std::vector<Fact> facts = q.conjuncts();
    for (Fact& f : facts) {
      for (Term& t : f.terms) t = rename(t);
    }
    std::shuffle(facts.begin(), facts.end(), rng.engine());
    std::vector<Term> summary = q.summary();
    for (Term& t : summary) t = rename(t);
    return Query(facts, summary);
  }

  // A random small query from src/gen, roughened: odd-named constants,
  // a summary that repeats a term or holds a constant, duplicate conjuncts,
  // and with `replicate`, sometimes up to three more copies of the body over
  // fresh NDVs (automorphisms that swap whole components).
  ConjunctiveQuery RandomSmallQuery(Rng& rng, const std::string& prefix,
                                    size_t max_vars, bool replicate) {
    RandomQueryParams p;
    p.num_conjuncts = 1 + rng.Index(6);
    p.num_vars = 2 + rng.Index(max_vars - 1);  // >= 2: enough distinct facts
    p.num_dist_vars = rng.Index(3);
    p.constant_prob = rng.Bernoulli(0.5) ? 0.15 : 0.0;
    p.name_prefix = prefix;
    ConjunctiveQuery base = RandomQuery(rng, catalog_, symbols_, p);
    std::vector<Fact> facts = base.conjuncts();
    for (Fact& f : facts) {
      for (Term& t : f.terms) {
        if (rng.Bernoulli(0.05)) t = rng.Pick(odd_constants_);
      }
    }
    if (rng.Bernoulli(0.15)) facts.push_back(rng.Pick(facts));
    if (replicate && rng.Bernoulli(0.2)) {
      const size_t body = facts.size();
      for (size_t copy = 1 + rng.Index(3); copy > 0; --copy) {
        for (size_t i = 0; i < body; ++i) {
          Fact f = facts[i];
          for (Term& t : f.terms) {
            if (t.is_nondist_var()) {
              t = Ndv(StrCat(symbols_.Name(t), "_c", copy));
            }
          }
          facts.push_back(std::move(f));
        }
      }
    }
    std::vector<Term> summary = base.summary();
    if (!summary.empty() && rng.Bernoulli(0.3)) {
      summary.push_back(rng.Pick(summary));
    }
    if (rng.Bernoulli(0.2)) summary.push_back(rng.Pick(odd_constants_));
    return Query(facts, summary);
  }

  Catalog catalog_;
  SymbolTable symbols_;
  RelationId a_ = 0, r_ = 0, s_ = 0, t_ = 0;
  std::vector<Term> dv_pool_;
  std::vector<Term> ndv_pool_;
  std::vector<Term> odd_constants_;
};

// Brute force: some kind-preserving bijection between the variables maps
// the summary onto the summary and the conjunct multiset onto the other's.
bool BruteForceIsomorphic(const ConjunctiveQuery& a,
                          const ConjunctiveQuery& b) {
  if (a.conjuncts().size() != b.conjuncts().size() ||
      a.summary().size() != b.summary().size()) {
    return false;
  }
  std::vector<Fact> target = b.conjuncts();
  std::sort(target.begin(), target.end());
  const auto split = [](const ConjunctiveQuery& q, std::vector<Term>* dvs,
                        std::vector<Term>* ndvs) {
    for (Term v : q.Variables()) (v.is_dist_var() ? dvs : ndvs)->push_back(v);
  };
  std::vector<Term> a_dvs, a_ndvs, b_dvs, b_ndvs;
  split(a, &a_dvs, &a_ndvs);
  split(b, &b_dvs, &b_ndvs);
  if (a_dvs.size() != b_dvs.size() || a_ndvs.size() != b_ndvs.size()) {
    return false;
  }
  EXPECT_LE(a_dvs.size() + a_ndvs.size(), 7u) << "too big to brute-force";
  std::sort(b_dvs.begin(), b_dvs.end());
  do {
    std::sort(b_ndvs.begin(), b_ndvs.end());
    do {
      std::map<Term, Term> m;
      for (size_t i = 0; i < a_dvs.size(); ++i) m[a_dvs[i]] = b_dvs[i];
      for (size_t i = 0; i < a_ndvs.size(); ++i) m[a_ndvs[i]] = b_ndvs[i];
      const auto map = [&m](Term t) { return t.is_variable() ? m.at(t) : t; };
      bool ok = true;
      for (size_t i = 0; ok && i < a.summary().size(); ++i) {
        ok = map(a.summary()[i]) == b.summary()[i];
      }
      if (!ok) continue;
      std::vector<Fact> image = a.conjuncts();
      for (Fact& f : image) {
        for (Term& t : f.terms) t = map(t);
      }
      std::sort(image.begin(), image.end());
      if (image == target) return true;
    } while (std::next_permutation(b_ndvs.begin(), b_ndvs.end()));
  } while (std::next_permutation(b_dvs.begin(), b_dvs.end()));
  return false;
}

uint64_t Fallbacks(const ConjunctiveQuery& q) {
  uint64_t fallbacks = 0;
  CanonicalTaskKey(q, q, "S{}", ChaseVariant::kRequired, &fallbacks);
  return fallbacks / 2;
}

// A tie the string-signature renderer split three ways: every listing of
// the diamond a -> {b, c} -> d gets one key.
TEST_F(CanonicalKeyTest, EveryListingOfTheDiamondGetsOneKey) {
  const Term a = Ndv("a"), b = Ndv("b"), c = Ndv("c"), d = Ndv("d");
  const std::vector<Fact> diamond = {
      {r_, {a, b}}, {r_, {a, c}}, {r_, {b, d}}, {r_, {c, d}}};
  std::vector<size_t> order = {0, 1, 2, 3};
  std::set<std::string> keys;
  size_t listings = 0;
  do {
    std::vector<Fact> facts;
    for (size_t i : order) facts.push_back(diamond[i]);
    keys.insert(CanonicalQueryKey(Query(facts)));
    ++listings;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(listings, 24u);
  EXPECT_EQ(keys.size(), 1u);
}

TEST_F(CanonicalKeyTest, RenamedAndPermutedRandomQueriesShareOneKey) {
  Rng rng(2024);
  size_t divergences = 0;
  uint64_t fallbacks = 0;
  constexpr size_t kQueries = 50000;
  for (size_t i = 0; i < kQueries; ++i) {
    const ConjunctiveQuery q =
        RandomSmallQuery(rng, StrCat("g", i % 4), 6, true);
    const ConjunctiveQuery copy = Scramble(q, rng);
    const std::string key = CanonicalTaskKey(q, copy, "S{}",
                                             ChaseVariant::kRequired,
                                             &fallbacks);
    const std::string q_key = CanonicalQueryKey(q);
    const std::string copy_key = CanonicalQueryKey(copy);
    if (q_key != copy_key && ++divergences <= 5) {
      ADD_FAILURE() << q.ToString() << "\n  vs " << copy.ToString() << "\n  "
                    << q_key << "\n  " << copy_key;
    }
    EXPECT_EQ(key, StrCat("V1|S{}|", q_key, "|=>|", copy_key));
  }
  EXPECT_EQ(divergences, 0u);
  EXPECT_EQ(fallbacks, 0u);
}

TEST_F(CanonicalKeyTest, KeysAreEqualExactlyForIsomorphicQueries) {
  // Small queries over few symbols, so isomorphic pairs turn up by chance
  // as well as by construction.
  Rng rng(77);
  std::vector<ConjunctiveQuery> queries;
  for (size_t i = 0; i < 240; ++i) {
    queries.push_back(RandomSmallQuery(rng, StrCat("h", i % 2), 4, false));
    if (i % 3 == 0) queries.push_back(Scramble(queries.back(), rng));
  }
  std::vector<std::string> keys;
  for (const ConjunctiveQuery& q : queries) {
    keys.push_back(CanonicalQueryKey(q));
  }
  size_t isomorphic_pairs = 0;
  size_t mismatches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = i + 1; j < queries.size(); ++j) {
      const bool iso = BruteForceIsomorphic(queries[i], queries[j]);
      isomorphic_pairs += iso;
      if (iso != (keys[i] == keys[j]) && ++mismatches <= 5) {
        ADD_FAILURE() << (iso ? "isomorphic, distinct keys: "
                              : "not isomorphic, one key: ")
                      << queries[i].ToString() << " vs "
                      << queries[j].ToString() << "\n  " << keys[i] << "\n  "
                      << keys[j];
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(isomorphic_pairs, 80u);  // every scrambled copy, at least
}

// Shapes whose conjuncts all tie under colour refinement: the tie search
// decides them, within budget.
TEST_F(CanonicalKeyTest, SymmetricShapesShareOneKeyWithinBudget) {
  std::vector<ConjunctiveQuery> shapes;
  {  // A star of eight spokes around a summary variable.
    const Term x = Dv("sx");
    std::vector<Fact> facts;
    for (int i = 0; i < 8; ++i) {
      facts.push_back({r_, {x, Ndv(StrCat("sy", i))}});
    }
    shapes.push_back(Query(facts, {x}));
  }
  {  // Six disjoint directed triangles.
    std::vector<Fact> facts;
    for (int i = 0; i < 6; ++i) {
      const Term u = Ndv(StrCat("tu", i)), v = Ndv(StrCat("tv", i)),
                 w = Ndv(StrCat("tw", i));
      facts.push_back({r_, {u, v}});
      facts.push_back({r_, {v, w}});
      facts.push_back({r_, {w, u}});
    }
    shapes.push_back(Query(facts));
  }
  {  // K_{3,3} as R-edges, and two 4-cycles beside one 8-cycle.
    std::vector<Fact> k33;
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        k33.push_back({r_, {Ndv(StrCat("kl", i)), Ndv(StrCat("kr", j))}});
      }
    }
    shapes.push_back(Query(k33));
    std::vector<Fact> cycles;
    for (int i = 0; i < 8; ++i) {
      cycles.push_back(
          {s_, {Ndv(StrCat("c8_", i)), Ndv(StrCat("c8_", (i + 1) % 8))}});
      cycles.push_back({s_, {Ndv(StrCat("c4_", i)),
                             Ndv(StrCat("c4_", i / 4 * 4 + (i + 1) % 4))}});
    }
    shapes.push_back(Query(cycles));
  }
  {  // 24 disjoint edges and one edge listed 8 times: twin cells.
    std::vector<Fact> edges;
    for (int i = 0; i < 24; ++i) {
      edges.push_back({r_, {Ndv(StrCat("eu", i)), Ndv(StrCat("ev", i))}});
    }
    shapes.push_back(Query(edges));
    shapes.push_back(Query(std::vector<Fact>(8, edges[0])));
  }
  Rng rng(5);
  for (const ConjunctiveQuery& shape : shapes) {
    const std::string key = CanonicalQueryKey(shape);
    EXPECT_EQ(Fallbacks(shape), 0u) << shape.ToString();
    for (int trial = 0; trial < 20; ++trial) {
      const ConjunctiveQuery copy = Scramble(shape, rng);
      EXPECT_EQ(CanonicalQueryKey(copy), key) << shape.ToString();
    }
  }
  // The cycle shapes are told apart: one 16-cycle is not 8+4+4.
  std::vector<Fact> long_cycle;
  for (int i = 0; i < 16; ++i) {
    long_cycle.push_back(
        {s_, {Ndv(StrCat("c16_", i)), Ndv(StrCat("c16_", (i + 1) % 16))}});
  }
  EXPECT_NE(CanonicalQueryKey(Query(long_cycle)),
            CanonicalQueryKey(shapes[3]));
}

// 24 disjoint 2-cycles: no two conjuncts are twins, and automorphism pruning
// still leaves the tie search a few nodes per cycle at every depth, past
// its budget.
TEST_F(CanonicalKeyTest, BudgetFallbackIsDeterministicCountedAndSound) {
  std::vector<Fact> cycles;
  for (int i = 0; i < 24; ++i) {
    const Term u = Ndv(StrCat("cu", i)), v = Ndv(StrCat("cv", i));
    cycles.push_back({r_, {u, v}});
    cycles.push_back({r_, {v, u}});
  }
  const ConjunctiveQuery q = Query(cycles);
  const std::string key = CanonicalQueryKey(q);
  EXPECT_EQ(CanonicalQueryKey(q), key);
  EXPECT_EQ(Fallbacks(q), 1u);

  // Sound: the key renders 48 R-conjuncts over 48 distinct variables, each
  // R(x,y) beside its R(y,x) — 24 disjoint 2-cycles again.
  ASSERT_EQ(key.rfind("Q{():", 0), 0u) << key;
  std::set<std::pair<std::string, std::string>> edges;
  std::set<std::string> vars;
  for (const std::string& fact :
       StrSplit(key.substr(5, key.size() - 6), ';')) {
    if (fact.empty()) continue;
    ASSERT_EQ(fact.rfind(StrCat("R", r_, "("), 0), 0u) << fact;
    const size_t comma = fact.find(',');
    const std::string x = fact.substr(3, comma - 3);
    const std::string y = fact.substr(comma + 1, fact.size() - comma - 2);
    EXPECT_NE(x, y);
    edges.insert({x, y});
    vars.insert(x);
    vars.insert(y);
  }
  EXPECT_EQ(edges.size(), 48u);
  EXPECT_EQ(vars.size(), 48u);
  for (const auto& [x, y] : edges) EXPECT_EQ(edges.count({y, x}), 1u) << x;

  // A self-loop in place of one conjunct is another query and another key.
  std::vector<Fact> looped = cycles;
  looped.back().terms[1] = looped.back().terms[0];
  EXPECT_NE(CanonicalQueryKey(Query(looped)), key);

  // The engine counts the fallback once per key build.
  ContainmentEngine engine(&catalog_, &symbols_);
  const ConjunctiveQuery one_edge = Query({cycles[0]});
  ASSERT_TRUE(engine.Check(q, one_edge, DependencySet()).ok());
  EXPECT_EQ(engine.stats().canonical_fallbacks, 1u);
}

}  // namespace
}  // namespace cqchase
