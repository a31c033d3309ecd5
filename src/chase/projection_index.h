// ProjectionIndex: a flat hash index of chase conjunct ids keyed by a
// projection of their facts, the shape behind the bulk core's witness groups
// and the FD phase's lhs index (chase/bulk.h, chase/chase.h).
//
// An entry stores only a conjunct id and its key's hash; the key itself is
// read in place, from the conjunct's current fact, whenever two hashes
// agree. So inserting a conjunct copies no terms and allocates nothing but
// the table's amortized growth. The price is an invariant the owner keeps:
// a fact must not change while its id is in the index. The chase keeps it
// by rebuilding an index from scratch after every FD substitution, the only
// thing that rewrites facts.
#ifndef CQCHASE_CHASE_PROJECTION_INDEX_H_
#define CQCHASE_CHASE_PROJECTION_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "base/hash.h"
#include "cq/fact.h"

namespace cqchase {

class ProjectionIndex {
 public:
  static constexpr uint64_t kNone = ~uint64_t{0};

  // Keys the index on `columns` (which must outlive it) and empties it; the
  // storage is kept.
  void Reset(const std::vector<uint32_t>* columns) {
    columns_ = columns;
    Clear();
  }
  void Clear() {
    for (Slot& slot : slots_) slot.id = kNone;
    size_ = 0;
  }
  const std::vector<uint32_t>* columns() const { return columns_; }

  // The id whose fact projected on columns() equals `probe` projected on
  // `probe_columns` (a column list of the same length), or kNone. `facts`
  // holds conjunct `id`'s fact at facts[id].
  uint64_t Find(const Fact& probe, const std::vector<uint32_t>& probe_columns,
                const FactTable& facts) const {
    if (size_ == 0) return kNone;
    const size_t hash = Hash(probe, probe_columns);
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask; slots_[i].id != kNone; i = (i + 1) & mask) {
      if (slots_[i].hash == hash &&
          SameKey(facts[slots_[i].id], *columns_, probe, probe_columns)) {
        return slots_[i].id;
      }
    }
    return kNone;
  }

  // The entry keyed like conjunct `id`'s fact: inserts `id` when there is
  // none. Returns the entry's id slot (the caller may overwrite it with
  // another id of the same key) and whether `id` was inserted. The slot is
  // valid until the next Emplace.
  std::pair<uint64_t*, bool> Emplace(uint64_t id, const FactTable& facts) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const Fact& fact = facts[id];
    const size_t hash = Hash(fact, *columns_);
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    for (; slots_[i].id != kNone; i = (i + 1) & mask) {
      if (slots_[i].hash == hash &&
          SameKey(facts[slots_[i].id], *columns_, fact, *columns_)) {
        return {&slots_[i].id, false};
      }
    }
    slots_[i] = Slot{id, hash};
    ++size_;
    return {&slots_[i].id, true};
  }

 private:
  struct Slot {
    uint64_t id = kNone;  // kNone marks an empty slot
    size_t hash = 0;
  };

  static size_t Hash(const Fact& fact, const std::vector<uint32_t>& columns) {
    size_t seed = 0xcbf29ce484222325ULL;
    for (const uint32_t c : columns) {
      seed = HashCombine(seed, fact.terms[c].hash());
    }
    return seed;
  }
  static bool SameKey(const Fact& a, const std::vector<uint32_t>& a_columns,
                      const Fact& b, const std::vector<uint32_t>& b_columns) {
    for (size_t i = 0; i < a_columns.size(); ++i) {
      if (a.terms[a_columns[i]] != b.terms[b_columns[i]]) return false;
    }
    return true;
  }

  // Doubles the table (at most half full), re-placing entries by their
  // stored hash.
  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kNone) continue;
      size_t i = slot.hash & mask;
      while (slots_[i].id != kNone) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  const std::vector<uint32_t>* columns_ = nullptr;
  std::vector<Slot> slots_;  // power-of-two size
  size_t size_ = 0;
};

}  // namespace cqchase

#endif  // CQCHASE_CHASE_PROJECTION_INDEX_H_
