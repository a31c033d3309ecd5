#include "symbols/symbol_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "symbols/term.h"

namespace cqchase {

// Moves the region cursors next to their limits without minting two billion
// NDVs first.
class SymbolTableTestPeer {
 public:
  static constexpr uint32_t kChaseBlockLimit = SymbolTable::kChaseBlockLimit;
  static void SetTableNdvs(SymbolTable& t, uint32_t n) { t.table_ndvs_ = n; }
  static void SetChaseBlocks(SymbolTable& t, uint32_t n) {
    t.chase_blocks_ = n;
  }
};

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
  {
    // A shard must not outlive its table's move, so its NDV is named here;
    // its freed block travels with the table.
    SymbolTable::NdvShard shard = src.CreateShard();
    Term sharded = shard.MakeChaseNdv(NdvProvenance{1, 7, 2, 4});
    EXPECT_EQ(src.Name(sharded), "n2147483648[A1,c7,i2,L4]");  // shard block
    ASSERT_TRUE(src.Provenance(sharded).has_value());
    EXPECT_EQ(src.Provenance(sharded)->source_conjunct, 7u);
  }
  auto expect_all_named = [&](const SymbolTable& t) {
    EXPECT_EQ(t.Name(c), "acme");
    EXPECT_EQ(t.Name(d), "e");
    EXPECT_EQ(t.Name(n), "y");
    EXPECT_EQ(t.Name(chased), "n1[A2,c5,i1,L3]");
    EXPECT_EQ(t.Find(TermKind::kNondistVar, "y"), n);
    EXPECT_EQ(t.num_nondist_vars(), 3u);
    EXPECT_EQ(t.chase_ndv_slots(), SymbolTable::kNdvBlockSize);
    EXPECT_EQ(t.chase_ndv_blocks_held(), 0u);
  };

  SymbolTable constructed(std::move(src));
  expect_all_named(constructed);
  SymbolTable assigned;
  assigned.InternConstant("overwritten");
  assigned = std::move(constructed);
  expect_all_named(assigned);
  {
    // The moved-to table recycles the block the source's shard freed.
    SymbolTable::NdvShard shard = assigned.CreateShard();
    EXPECT_EQ(shard.MakeChaseNdv(NdvProvenance{}).id(),
              SymbolTable::kChaseNdvBase);
    EXPECT_EQ(assigned.chase_ndv_slots(), SymbolTable::kNdvBlockSize);
  }

  // Both moved-from tables are valid empty tables (the use after move is
  // the point of the test).
  // NOLINTNEXTLINE(bugprone-use-after-move)
  for (SymbolTable* t : {&src, &constructed}) {
    EXPECT_EQ(t->num_constants(), 0u);
    EXPECT_EQ(t->num_dist_vars(), 0u);
    EXPECT_EQ(t->num_nondist_vars(), 0u);
    EXPECT_EQ(t->ndv_high_water(), 0u);
    EXPECT_EQ(t->chase_ndv_slots(), 0u);
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
  EXPECT_EQ(t.Name(n), "n2147483648[A1,c7,i2,L4]");
  EXPECT_EQ(t.num_nondist_vars(), 1u);
}

TEST(NdvShardTest, ShardMintNamesAreByteExact) {
  // Golden strings from a shard: its ids start at the chase region's base,
  // above every id the table takes for itself.
  SymbolTable t;
  t.MakeChaseNdv(NdvProvenance{2, 5, 1, 3});
  SymbolTable::NdvShard shard = t.CreateShard();
  Term a = shard.MakeChaseNdv(NdvProvenance{1, 7, 2, 4});
  Term b = shard.MakeChaseNdv(NdvProvenance{});
  EXPECT_EQ(t.Name(a), "n2147483648[A1,c7,i2,L4]");
  EXPECT_EQ(t.Name(b), "n2147483649[A0,c0,i0,L0]");
  EXPECT_EQ(t.Find(TermKind::kNondistVar, "n2147483648[A1,c7,i2,L4]"),
            std::nullopt);
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

// Block index of a shard-minted id.
uint32_t BlockOf(Term t) {
  return (t.id() - SymbolTable::kChaseNdvBase) / SymbolTable::kNdvBlockSize;
}

// Mints until `shard` has leased one more block; returns that block's first
// NDV.
Term MintIntoNextBlock(SymbolTable::NdvShard& shard, Term last) {
  Term t = shard.MakeChaseNdv(NdvProvenance{});
  while (BlockOf(t) == BlockOf(last)) t = shard.MakeChaseNdv(NdvProvenance{});
  return t;
}

TEST(NdvShardTest, DestroyedShardsReturnEveryBlock) {
  SymbolTable t;
  {
    SymbolTable::NdvShard shard = t.CreateShard();
    for (uint32_t i = 0; i < 3 * SymbolTable::kNdvBlockSize; ++i) {
      shard.MakeChaseNdv(NdvProvenance{});
    }
    EXPECT_EQ(t.chase_ndv_blocks_held(), 3u);
  }
  EXPECT_EQ(t.chase_ndv_blocks_held(), 0u);
  EXPECT_EQ(t.chase_ndv_slots(), 3 * SymbolTable::kNdvBlockSize);
  // A thousand sequential chases reuse the freed blocks: the region stays
  // the size of the most blocks ever held at once.
  for (int chase = 0; chase < 1000; ++chase) {
    SymbolTable::NdvShard shard = t.CreateShard();
    shard.MakeChaseNdv(NdvProvenance{});
  }
  EXPECT_EQ(t.chase_ndv_slots(), 3 * SymbolTable::kNdvBlockSize);
  EXPECT_EQ(t.num_nondist_vars(), 3 * SymbolTable::kNdvBlockSize + 1000);
}

TEST(NdvShardTest, FreedBlocksAreReusedLowestFirstAboveThePreviousBlock) {
  SymbolTable t;
  auto a = std::make_unique<SymbolTable::NdvShard>(t.CreateShard());
  SymbolTable::NdvShard b = t.CreateShard();
  auto c = std::make_unique<SymbolTable::NdvShard>(t.CreateShard());
  ASSERT_EQ(BlockOf(a->MakeChaseNdv(NdvProvenance{})), 0u);
  Term b_last = b.MakeChaseNdv(NdvProvenance{});
  ASSERT_EQ(BlockOf(b_last), 1u);
  ASSERT_EQ(BlockOf(c->MakeChaseNdv(NdvProvenance{})), 2u);
  a.reset();
  c.reset();  // free blocks: {0, 2}

  // b's next block must lie above block 1, so it skips the lower free 0.
  b_last = MintIntoNextBlock(b, b_last);
  EXPECT_EQ(BlockOf(b_last), 2u);
  // A new shard takes the lowest free block, then carves fresh ones.
  SymbolTable::NdvShard d = t.CreateShard();
  Term d_last = d.MakeChaseNdv(NdvProvenance{});
  EXPECT_EQ(BlockOf(d_last), 0u);
  d_last = MintIntoNextBlock(d, d_last);
  EXPECT_EQ(BlockOf(d_last), 3u);
  EXPECT_EQ(t.chase_ndv_slots(), 4 * SymbolTable::kNdvBlockSize);
  // Reused blocks start at their first id, as fresh ones do.
  EXPECT_EQ(d_last.id(),
            SymbolTable::kChaseNdvBase + 3 * SymbolTable::kNdvBlockSize);
}

TEST(NdvShardTest, IdsStrictlyIncreaseAcrossReusedBlocks) {
  // Free every other block of a five-block region, then let one shard mint
  // through them: it climbs 0, 2, 4, then carves 5 and 6 — each refill
  // strictly above the last, never back into a lower free block.
  SymbolTable t;
  std::vector<std::unique_ptr<SymbolTable::NdvShard>> holders;
  for (int i = 0; i < 5; ++i) {
    holders.push_back(
        std::make_unique<SymbolTable::NdvShard>(t.CreateShard()));
    holders.back()->MakeChaseNdv(NdvProvenance{});
  }
  holders[0].reset();
  holders[2].reset();
  holders[4].reset();
  SymbolTable::NdvShard shard = t.CreateShard();
  Term prev = shard.MakeChaseNdv(NdvProvenance{});
  std::vector<uint32_t> blocks = {BlockOf(prev)};
  for (uint32_t i = 1; i < 5 * SymbolTable::kNdvBlockSize; ++i) {
    Term next = shard.MakeChaseNdv(NdvProvenance{});
    ASSERT_LT(prev, next) << "mint " << i;
    if (BlockOf(next) != blocks.back()) blocks.push_back(BlockOf(next));
    prev = next;
  }
  EXPECT_EQ(blocks, (std::vector<uint32_t>{0, 2, 4, 5, 6}));
}

TEST(NdvShardTest, ShardMintsFollowEveryInternedNdv) {
  // The paper's "a fresh NDV follows every earlier symbol", made
  // unconditional by the region split: shard mints sort after every
  // table-region NDV, including those interned after the shard's block was
  // first used and those minted into a recycled block.
  SymbolTable t;
  std::vector<Term> table_ndvs = {t.InternNondistVar("before")};
  std::vector<Term> minted;
  {
    SymbolTable::NdvShard first = t.CreateShard();
    minted.push_back(first.MakeChaseNdv(NdvProvenance{}));
  }
  SymbolTable::NdvShard shard = t.CreateShard();
  minted.push_back(shard.MakeChaseNdv(NdvProvenance{}));  // recycled block
  table_ndvs.push_back(t.InternNondistVar("after"));
  table_ndvs.push_back(t.MakeFreshNondistVar("fresh"));
  table_ndvs.push_back(t.MakeChaseNdv(NdvProvenance{}));
  minted.push_back(shard.MakeChaseNdv(NdvProvenance{}));
  for (Term table_ndv : table_ndvs) {
    EXPECT_FALSE(SymbolTable::IsChaseRegionNdv(table_ndv));
    for (Term m : minted) {
      EXPECT_TRUE(SymbolTable::IsChaseRegionNdv(m));
      EXPECT_LT(table_ndv, m);
    }
  }
}

TEST(NdvShardTest, MintAboveLiftsTheFirstLeaseOverAQueryChaseNdv) {
  // A query built from a live chase's facts carries that chase's NDVs; a
  // chase of it must mint above them, never into a lower free block.
  SymbolTable t;
  auto low = std::make_unique<SymbolTable::NdvShard>(t.CreateShard());
  low->MakeChaseNdv(NdvProvenance{});
  SymbolTable::NdvShard other = t.CreateShard();
  Term carried = other.MakeChaseNdv(NdvProvenance{});
  ASSERT_EQ(BlockOf(carried), 1u);
  low.reset();  // block 0 is free
  SymbolTable::NdvShard shard = t.CreateShard();
  shard.MintAbove(t.InternNondistVar("plain"));  // table region: no effect
  shard.MintAbove(carried);
  Term fresh = shard.MakeChaseNdv(NdvProvenance{});
  EXPECT_GT(fresh, carried);
  EXPECT_EQ(BlockOf(fresh), 2u);
  SymbolTable::NdvShard unconstrained = t.CreateShard();
  EXPECT_EQ(BlockOf(unconstrained.MakeChaseNdv(NdvProvenance{})), 0u);
}

TEST(NdvShardTest, DeadChaseNdvsAreNotRenderedAsAnotherNdv) {
  // Freed slots are poisoned: naming an NDV whose shard is gone asserts in
  // debug builds, including after a new shard reused the block (the stale
  // id points past what the new owner minted).
  SymbolTable t;
  Term stale;
  {
    SymbolTable::NdvShard dead = t.CreateShard();
    dead.MakeChaseNdv(NdvProvenance{1, 1, 1, 1});
    stale = dead.MakeChaseNdv(NdvProvenance{2, 2, 2, 2});
  }
  EXPECT_DEBUG_DEATH(t.Name(stale), "dead chase");
  SymbolTable::NdvShard reuser = t.CreateShard();
  Term fresh = reuser.MakeChaseNdv(NdvProvenance{3, 3, 3, 3});
  ASSERT_EQ(BlockOf(fresh), BlockOf(stale));
  EXPECT_EQ(t.Name(fresh), "n2147483648[A3,c3,i3,L3]");
  EXPECT_DEBUG_DEATH(t.Provenance(stale), "dead chase");
#ifdef NDEBUG
  EXPECT_EQ(t.Name(stale), "n2147483649[freed]");
  EXPECT_FALSE(t.Provenance(stale).has_value());
#endif
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

TEST(NdvRegionDeathTest, TableRegionFailsLoudlyAtItsLimit) {
  SymbolTable t;
  SymbolTableTestPeer::SetTableNdvs(t, SymbolTable::kChaseNdvBase - 1);
  Term last = t.InternNondistVar("last");
  EXPECT_EQ(last.id(), SymbolTable::kChaseNdvBase - 1);
  EXPECT_EQ(t.Name(last), "last");
  EXPECT_DEATH(t.InternNondistVar("one-too-many"),
               "table NDV id region exhausted");
  EXPECT_DEATH(t.MakeChaseNdv(NdvProvenance{}),
               "table NDV id region exhausted");
}

TEST(NdvRegionDeathTest, ChaseRegionFailsLoudlyAtItsLimit) {
  SymbolTable t;
  SymbolTableTestPeer::SetChaseBlocks(t,
                                      SymbolTableTestPeer::kChaseBlockLimit - 1);
  Term last;
  {
    SymbolTable::NdvShard shard = t.CreateShard();
    for (uint32_t i = 0; i < SymbolTable::kNdvBlockSize; ++i) {
      last = shard.MakeChaseNdv(NdvProvenance{});
    }
    // The last block ends below Term::kInvalidId, which is never minted.
    EXPECT_TRUE(last.is_valid());
    EXPECT_EQ(t.Name(last), "n4294967167[A0,c0,i0,L0]");
    EXPECT_DEATH(shard.MakeChaseNdv(NdvProvenance{}),
                 "chase NDV id region exhausted");
  }
  // A freed block is still leased at the limit: only a full region dies.
  SymbolTable::NdvShard next = t.CreateShard();
  EXPECT_EQ(next.MakeChaseNdv(NdvProvenance{}).id(),
            last.id() + 1 - SymbolTable::kNdvBlockSize);
}

}  // namespace
}  // namespace cqchase
