#include "symbols/symbol_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "symbols/term.h"

namespace cqchase {
namespace {

TEST(TermTest, KindsAndPredicates) {
  Term c(TermKind::kConstant, 0);
  Term x(TermKind::kDistVar, 0);
  Term y(TermKind::kNondistVar, 0);
  EXPECT_TRUE(c.is_constant());
  EXPECT_FALSE(c.is_variable());
  EXPECT_TRUE(x.is_dist_var());
  EXPECT_TRUE(x.is_variable());
  EXPECT_TRUE(y.is_nondist_var());
  EXPECT_FALSE(Term::Invalid().is_valid());
}

TEST(TermTest, LexicographicOrderConstantsDvsNdvs) {
  // The FD chase rule's representative choice relies on this order:
  // constants first, then DVs, then NDVs; earlier-created first within kind.
  Term c0(TermKind::kConstant, 0), c1(TermKind::kConstant, 1);
  Term x0(TermKind::kDistVar, 0), x9(TermKind::kDistVar, 9);
  Term n0(TermKind::kNondistVar, 0);
  EXPECT_LT(c0, c1);
  EXPECT_LT(c1, x0);
  EXPECT_LT(x0, x9);
  EXPECT_LT(x9, n0);
  EXPECT_EQ(std::min(n0, c0), c0);
}

TEST(TermTest, EqualityAndHash) {
  Term a(TermKind::kDistVar, 3);
  Term b(TermKind::kDistVar, 3);
  Term c(TermKind::kNondistVar, 3);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(std::hash<Term>{}(a), std::hash<Term>{}(b));
}

TEST(SymbolTableTest, InterningIsIdempotent) {
  SymbolTable t;
  Term a = t.InternConstant("acme");
  Term b = t.InternConstant("acme");
  EXPECT_EQ(a, b);
  EXPECT_EQ(t.Name(a), "acme");
  EXPECT_EQ(t.num_constants(), 1u);
}

TEST(SymbolTableTest, KindsHaveSeparateNamespaces) {
  SymbolTable t;
  Term c = t.InternConstant("x");
  Term d = t.InternDistVar("x");
  Term n = t.InternNondistVar("x");
  EXPECT_NE(c, d);
  EXPECT_NE(d, n);
  EXPECT_EQ(t.Name(c), "x");
  EXPECT_EQ(t.Name(d), "x");
  EXPECT_EQ(t.Name(n), "x");
}

TEST(SymbolTableTest, FindLocatesInternedSymbols) {
  SymbolTable t;
  Term v = t.InternDistVar("e");
  EXPECT_EQ(t.Find(TermKind::kDistVar, "e"), v);
  EXPECT_EQ(t.Find(TermKind::kConstant, "e"), std::nullopt);
  EXPECT_EQ(t.Find(TermKind::kDistVar, "zz"), std::nullopt);
}

TEST(SymbolTableTest, ChaseNdvCarriesProvenance) {
  SymbolTable t;
  NdvProvenance p{/*attribute_index=*/2, /*source_conjunct=*/5,
                  /*ind_index=*/1, /*level=*/3};
  Term n = t.MakeChaseNdv(p);
  ASSERT_TRUE(t.Provenance(n).has_value());
  EXPECT_EQ(t.Provenance(n)->attribute_index, 2u);
  EXPECT_EQ(t.Provenance(n)->source_conjunct, 5u);
  EXPECT_EQ(t.Provenance(n)->ind_index, 1u);
  EXPECT_EQ(t.Provenance(n)->level, 3u);
  // Name encodes the provenance per the paper's naming scheme.
  EXPECT_EQ(t.Name(n), "n0[A2,c5,i1,L3]");
}

TEST(SymbolTableTest, ChaseNdvNamesAreByteExact) {
  // Golden strings: names are rendered from id + provenance on demand and
  // must match the names the table has always produced, field widths and
  // all. Table-minted chase NDVs stay findable by that name.
  SymbolTable t;
  Term a = t.MakeChaseNdv(NdvProvenance{2, 5, 1, 3});
  Term b = t.MakeChaseNdv(
      NdvProvenance{0, UINT64_MAX, UINT32_MAX, /*level=*/7});
  EXPECT_EQ(t.Name(a), "n0[A2,c5,i1,L3]");
  EXPECT_EQ(t.Name(b), "n1[A0,c18446744073709551615,i4294967295,L7]");
  EXPECT_EQ(t.Name(a), t.Name(a));  // stable across renderings
  EXPECT_EQ(t.DisplayName(a), "n0[A2,c5,i1,L3]");
  EXPECT_EQ(t.Find(TermKind::kNondistVar, "n0[A2,c5,i1,L3]"), a);
  EXPECT_EQ(t.Find(TermKind::kNondistVar, t.Name(b)), b);
}

TEST(SymbolTableTest, CallerNamedNdvsKeepTheirNamesAndHaveNoProvenance) {
  SymbolTable t;
  Term x = t.InternNondistVar("x");
  Term p0 = t.MakeFreshNondistVar("p");
  Term chase = t.MakeChaseNdv(NdvProvenance{1, 2, 3, 4});
  Term p1 = t.MakeFreshNondistVar("p");
  EXPECT_EQ(t.Name(x), "x");
  EXPECT_EQ(t.Name(p0), "p#0");
  EXPECT_EQ(t.Name(p1), "p#1");
  EXPECT_EQ(t.Name(chase), "n2[A1,c2,i3,L4]");
  EXPECT_FALSE(t.Provenance(x).has_value());
  EXPECT_FALSE(t.Provenance(p0).has_value());
  EXPECT_TRUE(t.Provenance(chase).has_value());
  EXPECT_EQ(t.Find(TermKind::kNondistVar, "x"), x);
  EXPECT_EQ(t.Find(TermKind::kNondistVar, "p#1"), p1);
  EXPECT_EQ(t.InternNondistVar("x"), x);
}

TEST(SymbolTableTest, MovedTableKeepsEveryNameAndSourceStaysUsable) {
  SymbolTable src;
  Term c = src.InternConstant("acme");
  Term d = src.InternDistVar("e");
  Term n = src.InternNondistVar("y");
  Term chased = src.MakeChaseNdv(NdvProvenance{2, 5, 1, 3});
  Term sharded;
  {
    SymbolTable::NdvShard shard = src.CreateShard();
    sharded = shard.MakeChaseNdv(NdvProvenance{1, 7, 2, 4});
  }
  auto expect_all_named = [&](const SymbolTable& t) {
    EXPECT_EQ(t.Name(c), "acme");
    EXPECT_EQ(t.Name(d), "e");
    EXPECT_EQ(t.Name(n), "y");
    EXPECT_EQ(t.Name(chased), "n1[A2,c5,i1,L3]");
    EXPECT_EQ(t.Name(sharded), "n128[A1,c7,i2,L4]");  // shard block
    ASSERT_TRUE(t.Provenance(sharded).has_value());
    EXPECT_EQ(t.Provenance(sharded)->source_conjunct, 7u);
    EXPECT_EQ(t.Find(TermKind::kNondistVar, "y"), n);
    EXPECT_EQ(t.num_nondist_vars(), 3u);
  };

  SymbolTable constructed(std::move(src));
  expect_all_named(constructed);
  SymbolTable assigned;
  assigned.InternConstant("overwritten");
  assigned = std::move(constructed);
  expect_all_named(assigned);

  // Both moved-from tables are valid empty tables (the use after move is
  // the point of the test).
  // NOLINTNEXTLINE(bugprone-use-after-move)
  for (SymbolTable* t : {&src, &constructed}) {
    EXPECT_EQ(t->num_constants(), 0u);
    EXPECT_EQ(t->num_dist_vars(), 0u);
    EXPECT_EQ(t->num_nondist_vars(), 0u);
    EXPECT_EQ(t->ndv_high_water(), 0u);
    EXPECT_EQ(t->Find(TermKind::kNondistVar, "y"), std::nullopt);
    Term fresh = t->InternNondistVar("z");
    EXPECT_EQ(fresh.id(), 0u);
    EXPECT_EQ(t->Name(fresh), "z");
    EXPECT_EQ(t->Name(t->MakeChaseNdv(NdvProvenance{})), "n1[A0,c0,i0,L0]");
  }
}

TEST(SymbolTableTest, ChaseNdvsFollowAllEarlierSymbols) {
  // "this name will lexicographically follow all earlier-generated names"
  SymbolTable t;
  Term early = t.InternNondistVar("s");
  Term n1 = t.MakeChaseNdv(NdvProvenance{});
  Term n2 = t.MakeChaseNdv(NdvProvenance{});
  EXPECT_LT(early, n1);
  EXPECT_LT(n1, n2);
}

TEST(SymbolTableTest, FreshSymbolsAreDistinct) {
  SymbolTable t;
  Term a = t.MakeFreshNondistVar("y");
  Term b = t.MakeFreshNondistVar("y");
  EXPECT_NE(a, b);
  Term c = t.MakeFreshConstant("null");
  Term d = t.MakeFreshConstant("null");
  EXPECT_NE(c, d);
  EXPECT_TRUE(c.is_constant());
}

TEST(SymbolTableTest, ProvenanceAbsentForPlainSymbols) {
  SymbolTable t;
  EXPECT_FALSE(t.Provenance(t.InternConstant("k")).has_value());
  EXPECT_FALSE(t.Provenance(t.InternDistVar("x")).has_value());
}

// --- Sharded NDV arena -------------------------------------------------------

TEST(NdvShardTest, ShardMintsProvenancedNdvsReadableFromTheTable) {
  SymbolTable t;
  SymbolTable::NdvShard shard = t.CreateShard();
  NdvProvenance p{/*attribute_index=*/1, /*source_conjunct=*/7,
                  /*ind_index=*/2, /*level=*/4};
  Term n = shard.MakeChaseNdv(p);
  EXPECT_TRUE(n.is_nondist_var());
  ASSERT_TRUE(t.Provenance(n).has_value());
  EXPECT_EQ(t.Provenance(n)->source_conjunct, 7u);
  EXPECT_EQ(t.Name(n), "n0[A1,c7,i2,L4]");
  EXPECT_EQ(t.num_nondist_vars(), 1u);
}

TEST(NdvShardTest, ShardMintNamesAreByteExact) {
  // Golden strings from a shard whose block starts above the table's own
  // intern cursor block.
  SymbolTable t;
  t.MakeChaseNdv(NdvProvenance{2, 5, 1, 3});
  SymbolTable::NdvShard shard = t.CreateShard();
  Term a = shard.MakeChaseNdv(NdvProvenance{1, 7, 2, 4});
  Term b = shard.MakeChaseNdv(NdvProvenance{});
  EXPECT_EQ(t.Name(a), "n128[A1,c7,i2,L4]");
  EXPECT_EQ(t.Name(b), "n129[A0,c0,i0,L0]");
  EXPECT_EQ(t.Find(TermKind::kNondistVar, "n128[A1,c7,i2,L4]"), std::nullopt);
}

TEST(NdvShardTest, IdsStrictlyIncreaseAcrossBlockRefills) {
  // One shard minting past several block boundaries: the handoff protocol
  // must keep this shard's ids monotone (the paper's "NDVs follow all
  // earlier symbols" invariant, scoped to the minting chase).
  SymbolTable t;
  SymbolTable::NdvShard shard = t.CreateShard();
  Term prev = shard.MakeChaseNdv(NdvProvenance{});
  for (uint32_t i = 0; i < 3 * SymbolTable::kNdvBlockSize; ++i) {
    Term next = shard.MakeChaseNdv(NdvProvenance{});
    EXPECT_LT(prev, next);
    prev = next;
  }
}

TEST(NdvShardTest, DestroyedShardRollsBackTheHighWaterMark) {
  SymbolTable t;
  uint32_t first_id;
  {
    SymbolTable::NdvShard shard = t.CreateShard();
    first_id = shard.MakeChaseNdv(NdvProvenance{}).id();
  }
  // The shard consumed one id of its block and its tail still topped the id
  // space, so the high-water mark rolled back: no kNdvBlockSize hole per
  // sequential chase.
  Term next = t.MakeChaseNdv(NdvProvenance{});
  EXPECT_EQ(next.id(), first_id + 1);
}

TEST(NdvShardTest, AbandonedLowTailIsNeverReused) {
  // A freed range buried under a younger block must become a hole, not be
  // recycled: recycling would hand later mints ids *below* existing symbols
  // and break the lexicographic-follow invariant the FD merge rule keys on.
  SymbolTable t;
  SymbolTable::NdvShard low = t.CreateShard();
  low.MakeChaseNdv(NdvProvenance{});
  SymbolTable::NdvShard high = t.CreateShard();
  Term top = high.MakeChaseNdv(NdvProvenance{});
  { SymbolTable::NdvShard dying = std::move(low); }  // tail is not the top
  Term next = t.MakeChaseNdv(NdvProvenance{});
  EXPECT_GT(next.id(), top.id());
}

TEST(NdvShardTest, BlockHandoffsAreAmortized) {
  SymbolTable t;
  SymbolTable::NdvShard shard = t.CreateShard();
  const uint32_t kMints = 4 * SymbolTable::kNdvBlockSize;
  for (uint32_t i = 0; i < kMints; ++i) shard.MakeChaseNdv(NdvProvenance{});
  // One lock acquisition per block, not per mint.
  EXPECT_EQ(t.ndv_blocks_handed_out(), kMints / SymbolTable::kNdvBlockSize);
  EXPECT_EQ(t.num_nondist_vars(), kMints);
}

TEST(NdvShardTest, ShardIsMovableAndMovedFromShardIsInert) {
  SymbolTable t;
  SymbolTable::NdvShard a = t.CreateShard();
  Term first = a.MakeChaseNdv(NdvProvenance{});
  SymbolTable::NdvShard b = std::move(a);
  EXPECT_FALSE(a.attached());
  Term second = b.MakeChaseNdv(NdvProvenance{});
  EXPECT_LT(first, second);
  EXPECT_EQ(t.num_nondist_vars(), 2u);
}

TEST(NdvShardTest, ShardMintsCoexistWithInterning) {
  // Interned NDVs and shard-minted NDVs share one id space and never
  // collide; interned ones stay findable by name, shard-minted ones are
  // deliberately unindexed (indexing would need the lock on the hot path).
  SymbolTable t;
  Term interned = t.InternNondistVar("y");
  SymbolTable::NdvShard shard = t.CreateShard();
  Term minted = shard.MakeChaseNdv(NdvProvenance{});
  Term interned2 = t.InternNondistVar("z");
  EXPECT_NE(interned.id(), minted.id());
  EXPECT_NE(interned2.id(), minted.id());
  EXPECT_EQ(t.Find(TermKind::kNondistVar, "y"), interned);
  EXPECT_EQ(t.Find(TermKind::kNondistVar, "z"), interned2);
  EXPECT_EQ(t.Find(TermKind::kNondistVar, t.Name(minted)), std::nullopt);
}

}  // namespace
}  // namespace cqchase
