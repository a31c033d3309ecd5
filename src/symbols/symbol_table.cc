#include "symbols/symbol_table.h"

#include <algorithm>
#include <cassert>

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
    ndv_slabs_ = std::move(other.ndv_slabs_);
    ndv_names_ = std::move(other.ndv_names_);
    ndv_limit_ = other.ndv_limit_;
    intern_range_ = other.intern_range_;
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
    other.ndv_slabs_.clear();
    other.ndv_names_.clear();
    other.ndv_limit_ = 0;
    other.intern_range_ = IdRange{};
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

void SymbolTable::EnsureNdvStorageLocked(uint32_t limit) {
  // The whole per-NDV cost of the arena: no name, no heap allocation.
  static_assert(sizeof(NdvSlot) <= 24, "an NDV costs at most 24 bytes");
  while (ndv_slabs_.size() * kNdvSlabSize < limit) {
    ndv_slabs_.push_back(std::make_unique<NdvSlot[]>(kNdvSlabSize));
  }
}

SymbolTable::IdRange SymbolTable::ReserveBlockLocked() {
  ++ndv_blocks_handed_out_;
  // Rollbacks can leave ndv_limit_ mid-slab; clip so a block never
  // straddles a slab boundary (shards cache one raw slot pointer).
  const uint32_t slab_end =
      (ndv_limit_ / kNdvSlabSize + 1) * kNdvSlabSize;
  IdRange r{ndv_limit_, std::min(ndv_limit_ + kNdvBlockSize, slab_end)};
  ndv_limit_ = r.end;
  EnsureNdvStorageLocked(ndv_limit_);
  return r;
}

void SymbolTable::ReturnRangeLocked(IdRange range) {
  if (range.begin >= range.end) return;
  if (range.end == ndv_limit_) ndv_limit_ = range.begin;
  // Otherwise the tail is abandoned: ids are plentiful, order is not.
}

uint32_t SymbolTable::ReserveSingleNdvLocked() {
  if (intern_range_.begin >= intern_range_.end) {
    intern_range_ = ReserveBlockLocked();
  }
  return intern_range_.begin++;
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
  std::lock_guard<std::mutex> lock(*table_->mu_);
  IdRange r = table_->ReserveBlockLocked();
  begin_ = next_ = r.begin;
  end_ = r.end;
  base_ = table_->NdvSlotLocked(r.begin);
}

void SymbolTable::NdvShard::ReturnRemainder() {
  if (table_ == nullptr || next_ >= end_) return;
  std::lock_guard<std::mutex> lock(*table_->mu_);
  table_->ReturnRangeLocked(IdRange{next_, end_});
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
    id = ReserveSingleNdvLocked();
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
  const uint32_t id = ReserveSingleNdvLocked();
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
    assert(t.id() < ndv_limit_);
    slot = *NdvSlotLocked(t.id());
    if (slot.name_index != kChaseNdv) return ndv_names_[slot.name_index];
  }
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
  assert(t.id() < ndv_limit_);
  const NdvSlot& slot = *NdvSlotLocked(t.id());
  if (slot.name_index != kChaseNdv) return std::nullopt;
  return slot.provenance();
}

}  // namespace cqchase
