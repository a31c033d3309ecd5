// SymbolTable: the shared universe of symbols (constants, DVs, NDVs) for one
// containment problem. Queries, chases and database instances built against
// the same table can be compared and mapped into each other directly — the
// device Theorem 1 of the paper relies on ("view the chase as a database").
//
// The table also implements the paper's chase-NDV naming scheme: when the IND
// chase rule introduces a fresh NDV, its identity encodes the attribute, the
// source conjunct, the IND applied and the level of the created conjunct.
//
// NDV arena: two id regions. NDVs the table names or mints itself (parser
// InternNondistVar, MakeFreshNondistVar, the locked MakeChaseNdv of the
// artifact builders) take ids in [0, kChaseNdvBase), one at a time, and
// live as long as the table. Chase NDVs take ids in [kChaseNdvBase,
// Term::kInvalidId) and live only as long as the chase (or streaming call)
// that minted them. Every chase NDV therefore sorts after every symbol the
// table will ever intern, which is the paper's naming invariant ("a fresh
// NDV follows all previously introduced symbols") with no ordering
// constraint left on the chase region itself.
//
// Chase hot loops mint through an NdvShard, lock-free within a leased
// block of kNdvBlockSize ids; only block handoff (one mutex acquisition per
// block, none at all for FD-only chases) synchronizes. A shard keeps every
// block it leased and returns all of them to the table's free list when it
// is destroyed. A refill takes the lowest free block above the shard's
// previous block, or carves a fresh one at the top of the region, so ids
// strictly increase within one shard (one chase) whichever blocks it
// reuses. The chase region's slabs are thus bounded by the blocks held at
// one time (live and parked chases, in-flight streaming calls), not by the
// number of decisions ever made. A recycled id names nothing once its
// chase is gone: results that outlive a chase either drop chase NDVs
// (stored verdicts), treat them as opaque ids (witness homomorphisms), or
// copy the provenance they cite (certificates). Freed slots are poisoned,
// so Name() or Provenance() of a dead chase's NDV asserts in debug builds.
//
// An NDV costs one fixed 24-byte NdvSlot in a slab that never moves once
// allocated, so a shard fills its leased slots without touching any shared
// structure. A slot holds no name: a chase NDV's slot is its provenance,
// and Name() renders "n17[A2,c5,i1,L3]" from id + provenance on demand
// (byte-identical every time, so nothing needs to store it). The rare NDVs
// named by a caller (parser InternNondistVar, MakeFreshNondistVar) keep
// their names in an append-only list the slot points into. Shard-minted
// NDVs are *not* registered in the name index (that would need the lock):
// Find() does not see them.
#ifndef CQCHASE_SYMBOLS_SYMBOL_TABLE_H_
#define CQCHASE_SYMBOLS_SYMBOL_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "symbols/term.h"

namespace cqchase {

// Provenance of an NDV created by the IND chase rule (see "IND CHASE RULE",
// Section 3): which attribute column it fills, which conjunct and IND caused
// its creation, and the level of the created conjunct.
struct NdvProvenance {
  uint32_t attribute_index = 0;  // column in the created conjunct
  uint64_t source_conjunct = 0;  // id of the conjunct the IND was applied to
  uint32_t ind_index = 0;        // index of the IND in the DependencySet
  uint32_t level = 0;            // level of the created conjunct
};

// Thread safety: interning, fresh-symbol creation, by-name lookups and
// Name()/Provenance() reads are guarded by an internal mutex. NDV *minting
// through an NdvShard* is lock-free within the shard's leased block; see
// the arena notes above.
// Reading Name()/Provenance() of a term is safe from any thread that
// obtained the term through a proper happens-before edge (a mutex, a thread
// join, a cache publish) with its creator — which is the only way a term can
// travel between threads anyway — and, for a chase NDV, while its chase is
// alive.
class SymbolTable {
 public:
  // Chase ids are leased in blocks of this many NDVs; slabs hold
  // kNdvSlabSize slots. Block size divides slab size, so one block never
  // straddles a slab boundary and a shard can cache a single raw NdvSlot
  // pointer.
  static constexpr uint32_t kNdvBlockSize = 128;
  static constexpr uint32_t kNdvSlabSize = 1024;
  // First id of the chase region; table-named NDVs take the ids below it.
  static constexpr uint32_t kChaseNdvBase = 1u << 31;

  // True for an NDV minted through an NdvShard: its id names something only
  // while the chase that minted it is alive.
  static bool IsChaseRegionNdv(Term t) {
    return t.is_nondist_var() && t.is_valid() && t.id() >= kChaseNdvBase;
  }

  // Composes the provenance-encoding chase-NDV name, e.g. "n17[A2,c5,i1,L3]"
  // — what Name() returns for a chase NDV while its chase is alive.
  static std::string ChaseNdvName(uint32_t id, const NdvProvenance& p);

  SymbolTable() : mu_(std::make_unique<std::mutex>()) {}

  // SymbolTables are identity objects shared by reference; copying one would
  // silently fork the symbol universe. Moves are custom (not defaulted) so
  // the moved-from table keeps a live mutex and stays a valid empty table
  // rather than crashing on first use. Moving a table with live NdvShards
  // attached is undefined behavior (the shards keep pointing at the source).
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;
  SymbolTable(SymbolTable&& other) noexcept;
  SymbolTable& operator=(SymbolTable&& other) noexcept;

  // Interns a constant by name. Repeated calls with the same name return the
  // same Term (constants compare equal iff their names are equal).
  Term InternConstant(std::string_view name);

  // Interns a distinguished / nondistinguished variable by name. Variables
  // of different kinds live in separate namespaces.
  Term InternDistVar(std::string_view name);
  Term InternNondistVar(std::string_view name);

  // Creates a fresh NDV for the IND chase rule, taking the table mutex. Its
  // name encodes the provenance, e.g. "n17[A2,c5,i1,L3]", and is indexed so
  // Find() sees it; it lives as long as the table. Chase hot loops should
  // mint through an NdvShard instead; this convenience entry point serves
  // the single-threaded artifact builders (EMVD chase, Theorem 3
  // constructions).
  Term MakeChaseNdv(const NdvProvenance& provenance);

  // Creates a fresh anonymous NDV (used by generators and by the Theorem 3
  // Q* construction's special z_A symbols).
  Term MakeFreshNondistVar(std::string_view name_hint);

  // Creates a fresh constant with a unique name derived from the hint.
  Term MakeFreshConstant(std::string_view name_hint);

  // Looks up an interned symbol by kind+name; nullopt if absent. Shard-
  // minted NDVs are not indexed and therefore not found here.
  std::optional<Term> Find(TermKind kind, std::string_view name) const;

  // Printable name of a term. Terms must belong to this table (a chase NDV:
  // to a live chase). Returned by value: a chase NDV's name is rendered
  // from its id and provenance.
  std::string Name(Term t) const;

  // Rendering for query text that must re-parse: constants are quoted
  // ('acme') unless purely numeric (42); variables render as their names.
  std::string DisplayName(Term t) const;

  // Provenance of a chase-created NDV; nullopt for other terms.
  std::optional<NdvProvenance> Provenance(Term t) const;

  // A per-chase handle that mints NDVs lock-free from leased id blocks.
  // One shard must be used by one thread at a time (typically: owned by one
  // Chase). Destroying (or moving over) a shard returns every block it
  // leased to the table's free list: its NDVs die with it. The table must
  // outlive every shard.
  class NdvShard {
   public:
    NdvShard() = default;
    explicit NdvShard(SymbolTable* table) : table_(table) {}
    ~NdvShard() { Release(); }

    NdvShard(const NdvShard&) = delete;
    NdvShard& operator=(const NdvShard&) = delete;
    NdvShard(NdvShard&& other) noexcept { *this = std::move(other); }
    NdvShard& operator=(NdvShard&& other) noexcept {
      if (this != &other) {
        Release();
        table_ = other.table_;
        base_ = other.base_;
        begin_ = other.begin_;
        next_ = other.next_;
        end_ = other.end_;
        min_block_ = other.min_block_;
        full_blocks_ = std::move(other.full_blocks_);
        other.table_ = nullptr;
        other.base_ = nullptr;
        other.begin_ = other.next_ = other.end_ = other.min_block_ = 0;
        other.full_blocks_.clear();
      }
      return *this;
    }

    // Lock-free except when the current block is exhausted (then one table
    // mutex acquisition leases the next block). Minted ids strictly
    // increase and follow every table-region symbol.
    Term MakeChaseNdv(const NdvProvenance& provenance);

    // Makes every later mint follow `t` too: a query built from another
    // chase's facts may carry its chase-region NDVs, and this chase's fresh
    // NDVs must sort after (and never equal) them. A no-op for other terms.
    // Call before the first mint.
    void MintAbove(Term t) {
      if (IsChaseRegionNdv(t)) {
        min_block_ = std::max(min_block_, BlockOf(t.id()) + 1);
      }
    }

    bool attached() const { return table_ != nullptr; }

   private:
    void Refill();   // lease the next block (locks the table)
    void Release();  // poison and free every leased block (locks the table)

    SymbolTable* table_ = nullptr;
    void* base_ = nullptr;  // NdvSlot* of id begin_; opaque to keep it private
    uint32_t begin_ = 0;    // first id of the current block (0: none yet)
    uint32_t next_ = 0;     // next id to mint
    uint32_t end_ = 0;      // one past the current block
    uint32_t min_block_ = 0;  // the next lease lands at or above this block
    std::vector<uint32_t> full_blocks_;  // earlier blocks, all minted
  };

  // Creates a shard minting into this table. Cheap; the first block is
  // leased lazily on the first mint.
  NdvShard CreateShard() { return NdvShard(this); }

  size_t num_constants() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return constants_.size();
  }
  size_t num_dist_vars() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return dist_vars_.size();
  }
  // Count of NDVs ever minted (interned, table-minted and shard-minted,
  // including those of chases since destroyed).
  size_t num_nondist_vars() const {
    return ndv_count_.load(std::memory_order_relaxed);
  }
  // One past the highest table-region NDV id: the slots that live as long
  // as the table (ids there are dense, so this is also their count).
  uint32_t ndv_high_water() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return table_ndvs_;
  }
  // Chase-region slots carved so far (blocks ever carved, times
  // kNdvBlockSize). Freed blocks are recycled, so this tracks the most
  // blocks held at one time rather than the NDVs ever minted.
  size_t chase_ndv_slots() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return static_cast<size_t>(chase_blocks_) * kNdvBlockSize;
  }
  // Chase-region blocks leased by live shards right now; 0 once every chase
  // and streaming call is gone.
  size_t chase_ndv_blocks_held() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return chase_blocks_ - free_blocks_.size();
  }
  // Total chase-region block leases (fresh or recycled). The arena's
  // amortization story in one number: compare against num_nondist_vars() —
  // one lock per block, not per mint.
  uint64_t ndv_blocks_handed_out() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return ndv_blocks_handed_out_;
  }

 private:
  friend class NdvShard;
  friend class SymbolTableTestPeer;

  // Blocks the chase region holds: its last block must end at or below
  // Term::kInvalidId, which no NDV may take.
  static constexpr uint32_t kChaseBlockLimit =
      (Term::kInvalidId - kChaseNdvBase) / kNdvBlockSize;
  // Block of a chase-region id; block b holds ids from
  // kChaseNdvBase + b * kNdvBlockSize.
  static uint32_t BlockOf(uint32_t id) {
    return (id - kChaseNdvBase) / kNdvBlockSize;
  }

  // One NDV: a chase NDV's provenance, or for a caller-named NDV the index
  // of its name in ndv_names_ (the provenance fields then unused). A slot
  // no live NDV owns — never minted, or freed with its chase — is tagged
  // kFreedNdv.
  static constexpr uint32_t kChaseNdv = UINT32_MAX;
  static constexpr uint32_t kFreedNdv = UINT32_MAX - 1;
  struct NdvSlot {
    uint64_t source_conjunct = 0;
    uint32_t attribute_index = 0;
    uint32_t ind_index = 0;
    uint32_t level = 0;
    uint32_t name_index = kFreedNdv;

    static NdvSlot Chase(const NdvProvenance& p) {
      return {p.source_conjunct, p.attribute_index, p.ind_index, p.level,
              kChaseNdv};
    }
    NdvProvenance provenance() const {
      return {attribute_index, source_conjunct, ind_index, level};
    }
  };
  using Slabs = std::vector<std::unique_ptr<NdvSlot[]>>;

  std::deque<std::string>& pool(TermKind kind);
  const std::deque<std::string>& pool(TermKind kind) const;

  Term Intern(TermKind kind, std::string_view name);

  // --- NDV arena internals (all require *mu_ unless noted) -----------------

  // Slot address of an NDV id in either region. Shards cache the address of
  // their current block, so they write it without the lock.
  NdvSlot* NdvSlotLocked(uint32_t id);
  const NdvSlot* NdvSlotLocked(uint32_t id) const {
    return const_cast<SymbolTable*>(this)->NdvSlotLocked(id);
  }

  // Makes `slabs` cover region slot `slot`. Slabs are allocated on first
  // touch (all slots poisoned), so only the pointer vector spans the slots
  // below it.
  static void EnsureSlab(Slabs& slabs, uint32_t slot);

  // Takes the next table-region id (aborts when the region is full).
  uint32_t NextTableNdvLocked();

  // Leases a chase-region block: the lowest free block >= min_block, else
  // a freshly carved one (aborts when the region is full).
  uint32_t LeaseBlockLocked(uint32_t min_block);
  // Puts a block back on the free list.
  void FreeBlockLocked(uint32_t block);

  // unique_ptr keeps the table movable (a mutex itself is not); the move
  // operations re-seat a fresh mutex in the source so it stays usable.
  std::unique_ptr<std::mutex> mu_;
  std::deque<std::string> constants_;
  std::deque<std::string> dist_vars_;
  std::unordered_map<std::string, uint32_t> constant_index_;
  std::unordered_map<std::string, uint32_t> dist_var_index_;
  std::unordered_map<std::string, uint32_t> nondist_var_index_;
  uint64_t fresh_counter_ = 0;

  // NDV arena: slabs never move or shrink. Table-region slots are written
  // once; a chase-region slot is written by the shard leasing its block and
  // poisoned when that shard frees it. ndv_names_ only grows.
  Slabs table_slabs_;
  Slabs chase_slabs_;
  std::deque<std::string> ndv_names_;
  uint32_t table_ndvs_ = 0;    // table-region ids taken
  uint32_t chase_blocks_ = 0;  // chase-region blocks carved
  // Sorted descending, so the lowest free block (what a new chase leases)
  // is popped from the back; no allocation per lease or free once grown.
  std::vector<uint32_t> free_blocks_;
  uint64_t ndv_blocks_handed_out_ = 0;
  std::atomic<uint64_t> ndv_count_{0};
};

}  // namespace cqchase

#endif  // CQCHASE_SYMBOLS_SYMBOL_TABLE_H_
