// A string-keyed least-recently-used cache with O(1) lookup, insert and
// eviction: a doubly-linked recency list (front = most recent) plus a hash
// map from key to list node. Replaces the engine's former FIFO deques, whose
// eviction ignored reuse and whose erase-by-key was an O(n) scan.
//
// Not thread-safe; the ContainmentEngine serializes access under its own
// mutex. Capacity 0 disables storage entirely (Put stores nothing and hands
// the value back), which is how a cache knob is turned off without
// sprinkling conditionals at call sites.
#ifndef CQCHASE_ENGINE_LRU_CACHE_H_
#define CQCHASE_ENGINE_LRU_CACHE_H_

#include <cstddef>
#include <iterator>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

namespace cqchase {

template <typename Value>
class LruCache {
 public:
  // Entries in recency order, front = most recent.
  using Entries = std::list<std::pair<std::string, Value>>;

  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  // Returns the value for `key` and marks it most-recently-used; nullptr on
  // miss. The pointer is invalidated by the next mutating call.
  Value* Get(const std::string& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    recency_.splice(recency_.begin(), recency_, it->second);
    return &it->second->second;
  }

  // Inserts or overwrites `key`, marks it most-recently-used, and evicts
  // from the least-recently-used end until the capacity bound holds. The
  // evicted entries (and an overwritten value) are returned rather than
  // destroyed, so a caller holding a lock can destroy them after unlocking.
  Entries Put(const std::string& key, Value value) {
    Entries evicted;
    if (capacity_ == 0) {
      evicted.emplace_back(key, std::move(value));
      return evicted;
    }
    auto it = index_.find(key);
    if (it != index_.end()) {
      evicted.emplace_back(key, std::move(it->second->second));
      it->second->second = std::move(value);
      recency_.splice(recency_.begin(), recency_, it->second);
      return evicted;
    }
    recency_.emplace_front(key, std::move(value));
    index_.emplace(key, recency_.begin());
    while (index_.size() > capacity_) {
      index_.erase(recency_.back().first);
      evicted.splice(evicted.end(), recency_, std::prev(recency_.end()));
    }
    return evicted;
  }

  void Clear() {
    recency_.clear();
    index_.clear();
  }

  // Membership probe that leaves recency untouched (Get would promote).
  bool Contains(const std::string& key) const {
    return index_.find(key) != index_.end();
  }

  // Empties the cache and returns every entry in recency order (front =
  // most recent). For bulk rewrites — a schema-delta migration retags the
  // drained entries and re-inserts the survivors back-to-front, which
  // reconstructs the original recency order exactly.
  Entries Drain() {
    Entries out;
    out.swap(recency_);
    index_.clear();
    return out;
  }

  size_t size() const { return index_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  Entries recency_;  // front = MRU
  std::unordered_map<std::string, typename Entries::iterator> index_;
};

}  // namespace cqchase

#endif  // CQCHASE_ENGINE_LRU_CACHE_H_
