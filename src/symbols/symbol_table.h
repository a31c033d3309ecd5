// SymbolTable: the shared universe of symbols (constants, DVs, NDVs) for one
// containment problem. Queries, chases and database instances built against
// the same table can be compared and mapped into each other directly — the
// device Theorem 1 of the paper relies on ("view the chase as a database").
//
// The table also implements the paper's chase-NDV naming scheme: when the IND
// chase rule introduces a fresh NDV, its identity encodes the attribute, the
// source conjunct, the IND applied and the level of the created conjunct.
//
// NDV arena sharding. Chase steps are the hot path of every decision
// procedure, and each IND step mints fresh NDVs. Rather than taking the
// table mutex per mint (which serializes CheckMany's thread fan-out exactly
// where it is hottest), NDV ids are handed out in *blocks*: an NdvShard holds
// a reserved id range plus a raw pointer into the backing slab and mints
// entirely lock-free; only block handoff (one mutex acquisition per
// kNdvBlockSize mints, and none at all for FD-only chases) synchronizes.
// A destroyed (or moved-over) shard returns its unused tail: if it is still
// the top of the id space the high-water mark rolls back (sequential
// workloads keep contiguous ids); otherwise the tail becomes a permanent
// hole of <= 127 ids whose slab slots stay allocated. Holes therefore
// only come from ranges outstanding at the same time (concurrent shards,
// or a shard and the table's own intern cursor). A chase parked
// for later resumption must not keep its block (Chase::ReturnUnusedNdvIds):
// every later block would be reserved above it, and evicting the chase
// would leave one hole per parked chase — the slab would grow with requests
// rather than with minted NDVs. Every block is
// therefore reserved *above every symbol in existence at handoff time*, so
// a fresh NDV always lexicographically follows the query terms and all of
// its chase's earlier mints — the paper's naming invariant. Across
// concurrently-minting shards the interleaving of already-reserved blocks
// is whatever the thread schedule made it; verdicts are isomorphism-
// invariant, so that cannot change an answer.
//
// An NDV costs one fixed NdvSlot in a slab that never moves once allocated,
// so a shard can fill its reserved slots without touching any shared
// structure. A slot holds no name: a chase NDV's slot is its provenance,
// and Name() renders "n17[A2,c5,i1,L3]" from id + provenance on demand
// (byte-identical every time, so nothing needs to store it). The rare NDVs
// named by a caller (parser InternNondistVar, MakeFreshNondistVar) keep
// their names in an append-only list the slot points into. Shard-minted
// NDVs are *not* registered in the name index (that would need the lock):
// Find() does not see them. Their names embed the id, so they cannot
// collide with each other; they are fresh symbols nothing re-interns.
#ifndef CQCHASE_SYMBOLS_SYMBOL_TABLE_H_
#define CQCHASE_SYMBOLS_SYMBOL_TABLE_H_

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
// through an NdvShard* is lock-free within the shard's reserved block; see
// the arena notes above.
// Reading Name()/Provenance() of a term is safe from any thread that
// obtained the term through a proper happens-before edge (a mutex, a thread
// join, a cache publish) with its creator — which is the only way a term can
// travel between threads anyway.
class SymbolTable {
 public:
  // Ids are reserved in blocks of this many NDVs; slabs hold kNdvSlabSize
  // slots. Block size divides slab size, so one block never straddles a
  // slab boundary and a shard can cache a single raw NdvSlot pointer.
  static constexpr uint32_t kNdvBlockSize = 128;
  static constexpr uint32_t kNdvSlabSize = 1024;

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
  // Find() sees it. Chase hot loops should mint through an NdvShard
  // instead; this convenience entry point serves the single-threaded
  // artifact builders (EMVD chase, Theorem 3 constructions).
  Term MakeChaseNdv(const NdvProvenance& provenance);

  // Creates a fresh anonymous NDV (used by generators and by the Theorem 3
  // Q* construction's special z_A symbols).
  Term MakeFreshNondistVar(std::string_view name_hint);

  // Creates a fresh constant with a unique name derived from the hint.
  Term MakeFreshConstant(std::string_view name_hint);

  // Looks up an interned symbol by kind+name; nullopt if absent. Shard-
  // minted NDVs are not indexed and therefore not found here.
  std::optional<Term> Find(TermKind kind, std::string_view name) const;

  // Printable name of a term. Terms must belong to this table. Returned by
  // value: a chase NDV's name is rendered from its id and provenance.
  std::string Name(Term t) const;

  // Rendering for query text that must re-parse: constants are quoted
  // ('acme') unless purely numeric (42); variables render as their names.
  std::string DisplayName(Term t) const;

  // Provenance of a chase-created NDV; nullopt for other terms.
  std::optional<NdvProvenance> Provenance(Term t) const;

  // A per-worker handle that mints NDVs lock-free from reserved id blocks.
  // One shard must be used by one thread at a time (typically: owned by one
  // Chase). Destroying (or moving from) a shard returns its unused id range
  // to the table's free pool. The table must outlive every shard.
  class NdvShard {
   public:
    NdvShard() = default;
    explicit NdvShard(SymbolTable* table) : table_(table) {}
    ~NdvShard() { ReturnRemainder(); }

    NdvShard(const NdvShard&) = delete;
    NdvShard& operator=(const NdvShard&) = delete;
    NdvShard(NdvShard&& other) noexcept { *this = std::move(other); }
    NdvShard& operator=(NdvShard&& other) noexcept {
      if (this != &other) {
        ReturnRemainder();
        table_ = other.table_;
        base_ = other.base_;
        begin_ = other.begin_;
        next_ = other.next_;
        end_ = other.end_;
        other.table_ = nullptr;
        other.base_ = nullptr;
        other.begin_ = other.next_ = other.end_ = 0;
      }
      return *this;
    }

    // Lock-free except when the current block is exhausted (then one table
    // mutex acquisition reserves the next block). Minted ids strictly
    // increase and follow every symbol that existed at block-handoff time.
    Term MakeChaseNdv(const NdvProvenance& provenance);

    bool attached() const { return table_ != nullptr; }

   private:
    void Refill();           // reserve the next block (locks the table)
    void ReturnRemainder();  // give [next_, end_) back (locks the table)

    SymbolTable* table_ = nullptr;
    void* base_ = nullptr;  // NdvSlot* of id begin_; opaque to keep it private
    uint32_t begin_ = 0;    // first id of the current block
    uint32_t next_ = 0;     // next id to mint
    uint32_t end_ = 0;      // one past the last reserved id
  };

  // Creates a shard minting into this table. Cheap; the first block is
  // reserved lazily on the first mint.
  NdvShard CreateShard() { return NdvShard(this); }

  size_t num_constants() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return constants_.size();
  }
  size_t num_dist_vars() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return dist_vars_.size();
  }
  // Count of *minted* NDVs (interned + chase-created). With sharding the id
  // space may contain reserved-but-unused holes, so this can be less than
  // the highest NDV id.
  size_t num_nondist_vars() const {
    return ndv_count_.load(std::memory_order_relaxed);
  }
  // One past the highest NDV id reserved so far; the slabs hold at least
  // this many slots. Minus num_nondist_vars(), it is the count of
  // reserved-but-unused ids (block tails in use plus abandoned holes).
  uint32_t ndv_high_water() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return ndv_limit_;
  }
  // Total NDV id blocks ever handed out (to shards and to the table's own
  // intern cursor). The arena's amortization story in one number: compare
  // against num_nondist_vars() — the old design paid one lock per mint,
  // this one pays one per block.
  uint64_t ndv_blocks_handed_out() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return ndv_blocks_handed_out_;
  }

 private:
  friend class NdvShard;

  // One NDV: a chase NDV's provenance, or for a caller-named NDV the index
  // of its name in ndv_names_ (the provenance fields then unused).
  static constexpr uint32_t kChaseNdv = UINT32_MAX;
  struct NdvSlot {
    uint64_t source_conjunct = 0;
    uint32_t attribute_index = 0;
    uint32_t ind_index = 0;
    uint32_t level = 0;
    uint32_t name_index = kChaseNdv;

    static NdvSlot Chase(const NdvProvenance& p) {
      return {p.source_conjunct, p.attribute_index, p.ind_index, p.level,
              kChaseNdv};
    }
    NdvProvenance provenance() const {
      return {attribute_index, source_conjunct, ind_index, level};
    }
  };

  // A reserved-but-unconsumed id range, [begin, end); always within one
  // block (hence one slab).
  struct IdRange {
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  std::deque<std::string>& pool(TermKind kind);
  const std::deque<std::string>& pool(TermKind kind) const;

  Term Intern(TermKind kind, std::string_view name);

  // --- NDV arena internals (all require *mu_ unless noted) -----------------

  // Slot address of an NDV id. Safe to call without the lock only for ids
  // inside a range the caller owns (the slab pointer is cached by shards).
  NdvSlot* NdvSlotLocked(uint32_t id) {
    return &ndv_slabs_[id / kNdvSlabSize][id % kNdvSlabSize];
  }
  const NdvSlot* NdvSlotLocked(uint32_t id) const {
    return const_cast<SymbolTable*>(this)->NdvSlotLocked(id);
  }

  // Grows the slab array to cover ids < limit.
  void EnsureNdvStorageLocked(uint32_t limit);

  // Reserves the next block at the high-water mark (clipped to the current
  // slab's end so a block never straddles slabs). Blocks always sit above
  // every id reserved before, which is what keeps fresh NDVs
  // lexicographically above all existing symbols.
  IdRange ReserveBlockLocked();

  // Takes one id for an intern/fresh-NDV call, from the table's own cursor
  // range (refilled through ReserveBlockLocked like any shard).
  uint32_t ReserveSingleNdvLocked();

  // Composes the provenance-encoding chase-NDV name, e.g. "n17[A2,c5,i1,L3]".
  static std::string ChaseNdvName(uint32_t id, const NdvProvenance& p);

  // Returns an unused tail: rolls the high-water mark back when the range
  // still tops the id space, else abandons it (reusing a low range would
  // put later-minted NDVs lexicographically below existing symbols).
  void ReturnRangeLocked(IdRange range);

  // unique_ptr keeps the table movable (a mutex itself is not); the move
  // operations re-seat a fresh mutex in the source so it stays usable.
  std::unique_ptr<std::mutex> mu_;
  std::deque<std::string> constants_;
  std::deque<std::string> dist_vars_;
  std::unordered_map<std::string, uint32_t> constant_index_;
  std::unordered_map<std::string, uint32_t> dist_var_index_;
  std::unordered_map<std::string, uint32_t> nondist_var_index_;
  uint64_t fresh_counter_ = 0;

  // NDV arena: slabs never move or shrink; slots are written once by their
  // id's owner and read-only afterwards. ndv_names_ only grows.
  std::vector<std::unique_ptr<NdvSlot[]>> ndv_slabs_;
  std::deque<std::string> ndv_names_;
  uint32_t ndv_limit_ = 0;  // high-water mark of block reservation
  IdRange intern_range_;    // the table's own single-id cursor
  uint64_t ndv_blocks_handed_out_ = 0;
  std::atomic<uint64_t> ndv_count_{0};
};

}  // namespace cqchase

#endif  // CQCHASE_SYMBOLS_SYMBOL_TABLE_H_
