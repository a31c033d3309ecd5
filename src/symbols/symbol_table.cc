#include "symbols/symbol_table.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>

#include "base/string_util.h"

namespace cqchase {

static_assert(SymbolTable::kNdvSlabSize % SymbolTable::kNdvBlockSize == 0,
              "blocks must tile slabs exactly");

SymbolTable::SymbolTable(SymbolTable&& other) noexcept : SymbolTable() {
  *this = std::move(other);
}

SymbolTable& SymbolTable::operator=(SymbolTable&& other) noexcept {
  if (this != &other) {
    mu_ = std::move(other.mu_);
    constants_ = std::move(other.constants_);
    dist_vars_ = std::move(other.dist_vars_);
    constant_index_ = std::move(other.constant_index_);
    dist_var_index_ = std::move(other.dist_var_index_);
    nondist_var_index_ = std::move(other.nondist_var_index_);
    fresh_counter_ = other.fresh_counter_;
    table_slabs_ = std::move(other.table_slabs_);
    chase_slabs_ = std::move(other.chase_slabs_);
    ndv_names_ = std::move(other.ndv_names_);
    table_ndvs_ = other.table_ndvs_;
    chase_blocks_ = other.chase_blocks_;
    free_blocks_ = std::move(other.free_blocks_);
    ndv_blocks_handed_out_ = other.ndv_blocks_handed_out_;
    ndv_count_.store(other.ndv_count_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    other.mu_ = std::make_unique<std::mutex>();
    other.constants_.clear();
    other.dist_vars_.clear();
    other.constant_index_.clear();
    other.dist_var_index_.clear();
    other.nondist_var_index_.clear();
    other.fresh_counter_ = 0;
    other.table_slabs_.clear();
    other.chase_slabs_.clear();
    other.ndv_names_.clear();
    other.table_ndvs_ = 0;
    other.chase_blocks_ = 0;
    other.free_blocks_.clear();
    other.ndv_blocks_handed_out_ = 0;
    other.ndv_count_.store(0, std::memory_order_relaxed);
  }
  return *this;
}

std::deque<std::string>& SymbolTable::pool(TermKind kind) {
  switch (kind) {
    case TermKind::kConstant:
      return constants_;
    case TermKind::kDistVar:
      return dist_vars_;
    case TermKind::kNondistVar:
      break;  // NDVs live in slabs, not a deque
  }
  assert(kind != TermKind::kNondistVar);
  return dist_vars_;
}

const std::deque<std::string>& SymbolTable::pool(TermKind kind) const {
  return const_cast<SymbolTable*>(this)->pool(kind);
}

// --- NDV arena ---------------------------------------------------------------

namespace {

// Region exhaustion is a hard stop: wrapping would mint ids that alias live
// symbols or Term::kInvalidId.
[[noreturn]] void DieRegionExhausted(const char* region, uint64_t ids) {
  std::fprintf(stderr,
               "SymbolTable: %s NDV id region exhausted after %llu ids\n",
               region, static_cast<unsigned long long>(ids));
  std::abort();
}

}  // namespace

SymbolTable::NdvSlot* SymbolTable::NdvSlotLocked(uint32_t id) {
  // The whole per-NDV cost of the arena: no name, no heap allocation.
  static_assert(sizeof(NdvSlot) <= 24, "an NDV costs at most 24 bytes");
  if (id < kChaseNdvBase) {
    assert(id < table_ndvs_);
    return &table_slabs_[id / kNdvSlabSize][id % kNdvSlabSize];
  }
  const uint32_t slot = id - kChaseNdvBase;
  assert(slot / kNdvBlockSize < chase_blocks_);
  return &chase_slabs_[slot / kNdvSlabSize][slot % kNdvSlabSize];
}

void SymbolTable::EnsureSlab(Slabs& slabs, uint32_t slot) {
  const size_t index = slot / kNdvSlabSize;
  if (slabs.size() <= index) slabs.resize(index + 1);
  if (slabs[index] == nullptr) {
    slabs[index] = std::make_unique<NdvSlot[]>(kNdvSlabSize);  // poisoned
  }
}

uint32_t SymbolTable::NextTableNdvLocked() {
  if (table_ndvs_ == kChaseNdvBase) DieRegionExhausted("table", table_ndvs_);
  EnsureSlab(table_slabs_, table_ndvs_);
  return table_ndvs_++;
}

uint32_t SymbolTable::LeaseBlockLocked(uint32_t min_block) {
  ++ndv_blocks_handed_out_;
  // Descending order: [begin, above_end) are the free blocks >= min_block,
  // the lowest of them last (for min_block 0, the vector's back).
  auto above_end = std::upper_bound(free_blocks_.begin(), free_blocks_.end(),
                                    min_block, std::greater<uint32_t>());
  if (above_end != free_blocks_.begin()) {
    const auto it = std::prev(above_end);
    const uint32_t block = *it;
    free_blocks_.erase(it);
    return block;
  }
  if (chase_blocks_ == kChaseBlockLimit) {
    DieRegionExhausted("chase", static_cast<uint64_t>(chase_blocks_) *
                                    kNdvBlockSize);
  }
  EnsureSlab(chase_slabs_, chase_blocks_ * kNdvBlockSize);
  return chase_blocks_++;
}

void SymbolTable::FreeBlockLocked(uint32_t block) {
  free_blocks_.insert(std::lower_bound(free_blocks_.begin(),
                                       free_blocks_.end(), block,
                                       std::greater<uint32_t>()),
                      block);
}

std::string SymbolTable::ChaseNdvName(uint32_t id, const NdvProvenance& p) {
  return StrCat("n", id, "[A", p.attribute_index, ",c", p.source_conjunct,
                ",i", p.ind_index, ",L", p.level, "]");
}

Term SymbolTable::NdvShard::MakeChaseNdv(const NdvProvenance& provenance) {
  assert(table_ != nullptr);
  if (next_ == end_) Refill();
  const uint32_t id = next_++;
  static_cast<NdvSlot*>(base_)[id - begin_] = NdvSlot::Chase(provenance);
  table_->ndv_count_.fetch_add(1, std::memory_order_relaxed);
  return Term(TermKind::kNondistVar, id);
}

void SymbolTable::NdvShard::Refill() {
  if (end_ != 0) full_blocks_.push_back(BlockOf(begin_));
  std::lock_guard<std::mutex> lock(*table_->mu_);
  const uint32_t block = table_->LeaseBlockLocked(min_block_);
  min_block_ = block + 1;  // ids keep increasing within this shard
  begin_ = next_ = kChaseNdvBase + block * kNdvBlockSize;
  end_ = begin_ + kNdvBlockSize;
  base_ = table_->NdvSlotLocked(begin_);
}

void SymbolTable::NdvShard::Release() {
  if (table_ == nullptr || end_ == 0) return;
  // Poison what this shard minted (the rest of each block is still
  // poisoned from its previous owner or its allocation) so a stale id
  // cannot render as the block's next owner's NDV.
  NdvSlot* current = static_cast<NdvSlot*>(base_);
  for (uint32_t i = 0; i < next_ - begin_; ++i) {
    current[i].name_index = kFreedNdv;
  }
  std::lock_guard<std::mutex> lock(*table_->mu_);
  for (uint32_t block : full_blocks_) {
    NdvSlot* slots =
        table_->NdvSlotLocked(kChaseNdvBase + block * kNdvBlockSize);
    for (uint32_t i = 0; i < kNdvBlockSize; ++i) {
      slots[i].name_index = kFreedNdv;
    }
    table_->FreeBlockLocked(block);
  }
  table_->FreeBlockLocked(BlockOf(begin_));
  full_blocks_.clear();
  begin_ = next_ = end_ = 0;
  base_ = nullptr;
}

// --- Interning (locked paths) ------------------------------------------------

// Callers hold *mu_.
Term SymbolTable::Intern(TermKind kind, std::string_view name) {
  auto& index = kind == TermKind::kConstant  ? constant_index_
                : kind == TermKind::kDistVar ? dist_var_index_
                                             : nondist_var_index_;
  auto it = index.find(std::string(name));
  if (it != index.end()) return Term(kind, it->second);
  uint32_t id;
  if (kind == TermKind::kNondistVar) {
    id = NextTableNdvLocked();
    NdvSlot slot;
    slot.name_index = static_cast<uint32_t>(ndv_names_.size());
    *NdvSlotLocked(id) = slot;
    ndv_names_.emplace_back(name);
    ndv_count_.fetch_add(1, std::memory_order_relaxed);
  } else {
    auto& p = pool(kind);
    id = static_cast<uint32_t>(p.size());
    p.emplace_back(name);
  }
  index.emplace(std::string(name), id);
  return Term(kind, id);
}

Term SymbolTable::InternConstant(std::string_view name) {
  std::lock_guard<std::mutex> lock(*mu_);
  return Intern(TermKind::kConstant, name);
}

Term SymbolTable::InternDistVar(std::string_view name) {
  std::lock_guard<std::mutex> lock(*mu_);
  return Intern(TermKind::kDistVar, name);
}

Term SymbolTable::InternNondistVar(std::string_view name) {
  std::lock_guard<std::mutex> lock(*mu_);
  return Intern(TermKind::kNondistVar, name);
}

Term SymbolTable::MakeChaseNdv(const NdvProvenance& provenance) {
  std::lock_guard<std::mutex> lock(*mu_);
  const uint32_t id = NextTableNdvLocked();
  *NdvSlotLocked(id) = NdvSlot::Chase(provenance);
  ndv_count_.fetch_add(1, std::memory_order_relaxed);
  nondist_var_index_.emplace(ChaseNdvName(id, provenance), id);
  return Term(TermKind::kNondistVar, id);
}

Term SymbolTable::MakeFreshNondistVar(std::string_view name_hint) {
  std::lock_guard<std::mutex> lock(*mu_);
  std::string name = StrCat(name_hint, "#", fresh_counter_++);
  return Intern(TermKind::kNondistVar, name);
}

Term SymbolTable::MakeFreshConstant(std::string_view name_hint) {
  std::lock_guard<std::mutex> lock(*mu_);
  std::string name = StrCat(name_hint, "#", fresh_counter_++);
  return Intern(TermKind::kConstant, name);
}

std::optional<Term> SymbolTable::Find(TermKind kind,
                                      std::string_view name) const {
  std::lock_guard<std::mutex> lock(*mu_);
  const auto& index = kind == TermKind::kConstant  ? constant_index_
                      : kind == TermKind::kDistVar ? dist_var_index_
                                                   : nondist_var_index_;
  auto it = index.find(std::string(name));
  if (it == index.end()) return std::nullopt;
  return Term(kind, it->second);
}

std::string SymbolTable::Name(Term t) const {
  NdvSlot slot;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    if (t.kind() != TermKind::kNondistVar) {
      const auto& p = pool(t.kind());
      assert(t.id() < p.size());
      return p[t.id()];
    }
    slot = *NdvSlotLocked(t.id());
    assert(slot.name_index != kFreedNdv && "NDV of a dead chase");
    if (slot.name_index < kFreedNdv) return ndv_names_[slot.name_index];
  }
  if (slot.name_index == kFreedNdv) return StrCat("n", t.id(), "[freed]");
  return ChaseNdvName(t.id(), slot.provenance());
}

std::string SymbolTable::DisplayName(Term t) const {
  std::string name = Name(t);
  if (!t.is_constant()) return name;
  bool numeric = !name.empty();
  for (char c : name) {
    if (c < '0' || c > '9') {
      numeric = false;
      break;
    }
  }
  if (numeric) return name;
  return "'" + name + "'";
}

std::optional<NdvProvenance> SymbolTable::Provenance(Term t) const {
  if (t.kind() != TermKind::kNondistVar) return std::nullopt;
  std::lock_guard<std::mutex> lock(*mu_);
  const NdvSlot& slot = *NdvSlotLocked(t.id());
  assert(slot.name_index != kFreedNdv && "NDV of a dead chase");
  if (slot.name_index != kChaseNdv) return std::nullopt;
  return slot.provenance();
}

}  // namespace cqchase
