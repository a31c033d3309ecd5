// VerdictTier: the engine's pluggable verdict-cache hierarchy.
//
// Johnson–Klug verdicts are pure functions of their canonical task key
// (engine/canonical.h folds Q, Q', Σ and the chase variant into it), so
// verdict caches can be stacked arbitrarily deep without soundness risk: a
// tier can only be *cold*, never *stale*. This header turns that property
// into a first-class seam — one probe interface, many storage engines behind
// it (the same move VLog makes with its pluggable column-store backends):
//
//   VerdictTier  — the interface every backend implements: Lookup / Publish
//                  / Flush / Stats, plus a Fingerprint() handshake.
//   TierSpec     — declarative description of one tier (kind and backend
//                  knobs); EngineConfig carries a vector of these.
//   TierStack    — the assembled hierarchy. Probes tiers in order (cheapest
//                  first); a miss at tier N falls through to N+1; a hit at
//                  tier N is promoted into every cheaper tier, so hot keys
//                  migrate toward memory. Publishes fan out to every
//                  tier; durable/remote tiers buffer and make
//                  the bytes move on Flush(), which the engine runs
//                  write-behind on its executor.
//
// Fingerprint handshake: verdicts are only exchangeable between parties that
// agree on the canonical-key scheme and the StoredVerdict layout — both are
// folded into StoreSchemaFingerprint() (engine/serialize.h). TierStack
// assembly checks every tier's Fingerprint() against this build's; a
// mismatched (or unconstructible) tier is *quarantined*: disabled, its
// reason recorded in its descriptor, while the rest of the stack serves. A
// disabled tier is never silently served — a wrong key scheme would collide
// keys of *different* tasks.
//
// Ships with three backends: LruTier (the in-memory verdict LRU), a
// LocalStoreTier adapting the persistent VerdictStore (engine/store.h), and
// RemoteTier (engine/remote_tier.h) speaking a fetch/publish protocol over a
// transport. The recipe for a fourth backend is in README.md.
#ifndef CQCHASE_ENGINE_TIER_H_
#define CQCHASE_ENGINE_TIER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "engine/lru_cache.h"
#include "engine/serialize.h"
#include "engine/store.h"

namespace cqchase {

class VerdictTransport;  // engine/remote_tier.h

// Monotone per-tier counters plus the `entries` gauge; every backend fills
// the generic ones, RemoteTier additionally fills the negative-cache and
// transport rows. Surfaced per tier in EngineStats and bench JSON records.
struct VerdictTierStats {
  std::string name;                // e.g. "lru", "store:/path", "remote:peer"
  uint64_t entries = 0;            // resident entries (gauge)
  uint64_t lookups = 0;            // probes reaching this tier
  uint64_t hits = 0;
  uint64_t publishes = 0;          // publishes *accepted* (dedup/cap refusals
                                   // are not counted here)
  uint64_t flushes = 0;            // Flush() calls that moved records
  uint64_t flush_failures = 0;
  // RemoteTier only.
  uint64_t fetches = 0;            // transport round trips for Lookup(Many)
  uint64_t batched_fetches = 0;    // of those, kTierOpFetchMany round trips
  uint64_t batched_keys = 0;       // keys shipped inside batched round trips
  uint64_t negative_hits = 0;      // misses served by the local negative cache
  uint64_t negatives_expired = 0;  // negative entries aged out by their TTL
  uint64_t transport_errors = 0;
  uint64_t reconnects = 0;         // transport re-dials after a lost link
  uint64_t publishes_dropped = 0;  // pending entries shed at the buffer cap
};

// One layer of the verdict-cache hierarchy. Implementations must be
// thread-safe: the engine probes and publishes from every executor worker
// and flushes from a write-behind task concurrently.
class VerdictTier {
 public:
  virtual ~VerdictTier() = default;

  virtual std::string_view Name() const = 0;

  // Point probe. nullopt is a miss — including "backend unreachable": a tier
  // that cannot answer must degrade to cold, never guess.
  virtual std::optional<StoredVerdict> Lookup(const std::string& key) = 0;

  // Batch probe, results aligned with `keys`. The default is a per-key
  // Lookup loop — correct for every backend; RemoteTier overrides it to ship
  // one kTierOpFetchMany round trip per chunk instead of one RTT per key.
  virtual std::vector<std::optional<StoredVerdict>> LookupMany(
      const std::vector<std::string>& keys) {
    std::vector<std::optional<StoredVerdict>> out;
    out.reserve(keys.size());
    for (const auto& key : keys) out.push_back(Lookup(key));
    return out;
  }

  // Inserts `verdict` under `key`. Verdicts are pure functions of the key,
  // so an overwrite is always a no-op re-statement: backends may (and the
  // durable ones do) treat Publish as insert-if-absent to avoid duplicate
  // bytes. Must be cheap — durable/remote tiers buffer here and move bytes
  // in Flush(). Returns whether the tier accepted a *new* entry.
  virtual bool Publish(const std::string& key, const StoredVerdict& verdict) = 0;

  // Drains whatever Publish buffered (append log write, transport batch).
  // The engine schedules this on its executor so the decision path never
  // waits on I/O or a network.
  virtual Status Flush() = 0;

  virtual VerdictTierStats Stats() const = 0;

  // Schema handshake value, checked once at stack assembly against this
  // build's StoreSchemaFingerprint(). Local backends return it verbatim;
  // RemoteTier returns whatever its *peer* reported at connect.
  virtual uint64_t Fingerprint() const = 0;

  // Migrates every resident entry of the delta's old Σ per the survival
  // rules in engine/lineage.h: survivors are retagged and re-keyed, touched
  // entries are dropped. Entries under any other Σ are untouched. The
  // default is correct for a tier with no retaggable state. Backends that
  // cannot retag remotely (an unreachable peer) degrade to dropping their
  // view of the old Σ — stale entries merely become unreachable under new-Σ
  // keys, never wrong.
  virtual DeltaReceipt ApplyDelta(const LineageDelta& ld) {
    (void)ld;
    return {};
  }

  // Drops volatile state only (ClearCaches semantics): an LRU empties, a
  // remote tier forgets its negative entries; durable entries and pending
  // publishes survive.
  virtual void Clear() {}

  // True when Publish/promotion buffered bytes that a Flush() still needs to
  // move. The engine uses this to schedule exactly the flushes it needs.
  virtual bool HasPendingWrites() const { return false; }
};

// Declarative description of one tier; EngineConfig::tiers holds the stack
// cheapest-first. Use the factory helpers — they read as the probe order:
//   config.tiers = {TierSpec::Lru(1 << 16),
//                   TierSpec::LocalStore("/var/cq/verdicts"),
//                   TierSpec::Remote(transport)};
struct TierSpec {
  enum class Kind { kLru, kLocalStore, kRemote };

  Kind kind = Kind::kLru;

  // kLru: entry bound (0 disables storage, the knob-off idiom).
  size_t capacity = 1 << 16;

  // kLocalStore: the store directory plus its map bound (0 = unbounded; see
  // VerdictStoreOptions::max_entries).
  std::string path;
  uint64_t store_max_entries = 0;

  // kRemote: the connected transport plus the negative-entry TTL — a fetch
  // miss is remembered locally for this long, so a peer cannot pin "unknown"
  // forever once the authority learns the verdict (0 = never cache misses).
  std::shared_ptr<VerdictTransport> transport;
  std::chrono::milliseconds remote_negative_ttl{250};

  static TierSpec Lru(size_t capacity) {
    TierSpec s;
    s.kind = Kind::kLru;
    s.capacity = capacity;
    return s;
  }
  static TierSpec LocalStore(std::string path, uint64_t max_entries = 0) {
    TierSpec s;
    s.kind = Kind::kLocalStore;
    s.path = std::move(path);
    s.store_max_entries = max_entries;
    return s;
  }
  static TierSpec Remote(std::shared_ptr<VerdictTransport> transport) {
    TierSpec s;
    s.kind = Kind::kRemote;
    s.transport = std::move(transport);
    return s;
  }
};

// --- local backends ----------------------------------------------------------

// Tier 0 in every default stack: the in-memory verdict LRU the engine always
// had, now behind the common interface (and its own mutex, off the engine's
// cache lock). Nothing to flush; never mismatches (same build, same scheme).
class LruTier final : public VerdictTier {
 public:
  explicit LruTier(size_t capacity) : cache_(capacity) {}

  std::string_view Name() const override { return "lru"; }
  std::optional<StoredVerdict> Lookup(const std::string& key) override;
  bool Publish(const std::string& key, const StoredVerdict& verdict) override;
  Status Flush() override { return Status::OK(); }
  VerdictTierStats Stats() const override;
  uint64_t Fingerprint() const override { return StoreSchemaFingerprint(); }
  DeltaReceipt ApplyDelta(const LineageDelta& ld) override;
  void Clear() override;

 private:
  mutable std::mutex mu_;
  LruCache<StoredVerdict> cache_;
  uint64_t lookups_ = 0;
  uint64_t hits_ = 0;
  uint64_t publishes_ = 0;
};

// The persistent VerdictStore (engine/store.h) behind the tier interface.
// Publish is insert-if-absent straight into the store's memory map + pending
// buffer; Flush appends the write-behind log. The store's own guards
// (version/fingerprint/checksum quarantine, flock single-owner) are
// unchanged — this adapter adds nothing between the engine and them.
class LocalStoreTier final : public VerdictTier {
 public:
  // Takes ownership of an already-opened store (TierStack::Assemble opens it
  // so an open failure quarantines the tier).
  explicit LocalStoreTier(std::unique_ptr<VerdictStore> store);

  std::string_view Name() const override { return name_; }
  std::optional<StoredVerdict> Lookup(const std::string& key) override;
  bool Publish(const std::string& key, const StoredVerdict& verdict) override;
  Status Flush() override;
  VerdictTierStats Stats() const override;
  uint64_t Fingerprint() const override { return StoreSchemaFingerprint(); }
  DeltaReceipt ApplyDelta(const LineageDelta& ld) override {
    return store_->ApplyDelta(ld);
  }
  bool HasPendingWrites() const override { return store_->has_pending(); }

  VerdictStore* store() const { return store_.get(); }

 private:
  std::unique_ptr<VerdictStore> store_;
  std::string name_;

  mutable std::mutex mu_;
  uint64_t lookups_ = 0;
  uint64_t hits_ = 0;
  uint64_t publishes_ = 0;
  uint64_t flushes_ = 0;
  uint64_t flush_failures_ = 0;
};

// --- the assembled hierarchy -------------------------------------------------

class TierStack {
 public:
  // One row per spec, in spec order — including tiers that did not make it
  // (active = false, status says why). This is the introspection surface
  // tests and ops read; a quarantined tier is visible here, never silently
  // absent.
  struct TierDescriptor {
    std::string name;
    TierSpec::Kind kind = TierSpec::Kind::kLru;
    bool active = false;
    Status status;  // OK when active; the quarantine reason otherwise
  };

  // Builds every tier and runs the fingerprint handshake. A tier that
  // mismatches or fails to construct (or whose spec is malformed) is
  // quarantined: its descriptor carries the reason and the rest of the
  // stack serves.
  static std::unique_ptr<TierStack> Assemble(
      const std::vector<TierSpec>& specs);

  struct LookupResult {
    StoredVerdict verdict;
    size_t tier_index = 0;       // which stack position answered
    TierSpec::Kind kind = TierSpec::Kind::kLru;
    bool buffered_writes = false;  // promotion left bytes for a Flush()
  };

  // Which part of the stack a Lookup probes. kLocal is the in-process
  // prefix: every active tier before the first remote one (an LRU, a local
  // store), cheap enough to probe on a submitting thread. kRest is the
  // remainder, from the first remote tier on, which may cost a round trip.
  // kLocal then kRest probes exactly what kAll does, in the same order.
  enum class Probe { kAll, kLocal, kRest };

  // Probes the tiers of `probe` in order; on a hit at tier N, publishes the
  // verdict into every cheaper tier, inside the probed part or not (the
  // promotion that keeps hot keys near memory), and reports whether that
  // buffered durable bytes.
  std::optional<LookupResult> Lookup(const std::string& key,
                                     Probe probe = Probe::kAll);

  struct PublishReceipt {
    uint64_t accepted = 0;         // tiers that took a new entry
    bool buffered_writes = false;  // some tier needs a Flush()
  };

  // Fans the verdict out to every tier.
  PublishReceipt Publish(const std::string& key, const StoredVerdict& verdict);

  struct PrefetchReceipt {
    uint64_t keys = 0;             // distinct keys probed
    uint64_t resolved = 0;         // keys some tier answered
    bool buffered_writes = false;  // promotion left bytes for a Flush()
  };

  // Warms the cheap tiers for a burst: probes the tiers in order with
  // LookupMany (deduplicated keys; resolved keys drop out of later probes)
  // and promotes every hit into the cheaper tiers,
  // exactly as Lookup would one key at a time. A network tier thus pays one
  // batched round trip for the burst instead of one RTT per key. Purely an
  // optimization: per-tier lookup counters tick for prefetched keys (they
  // are real probes), but a later Lookup of a prefetched key is what the
  // engine-level counters see.
  PrefetchReceipt Prefetch(const std::vector<std::string>& keys);

  // Drives one schema edit through every active tier and sums the per-tier
  // receipts.
  // Cheap tiers migrate in place; the store compacts; a remote tier ships
  // the delta to its peer (kTierOpApplyDelta). Not atomic across tiers: a
  // later tier may briefly still hold old-Σ entries while a cheaper one is
  // migrated, which is harmless because old-Σ keys are unreachable from
  // new-Σ lookups.
  DeltaReceipt ApplyDelta(const LineageDelta& ld);

  // Flushes every active tier; returns the first failure (all tiers are
  // still attempted — one full disk must not strand the remote batch).
  Status Flush();

  // ClearCaches semantics: volatile state only.
  void Clear();

  std::vector<VerdictTierStats> Stats() const;
  const std::vector<TierDescriptor>& descriptors() const {
    return descriptors_;
  }

  // The first local-store tier's VerdictStore (nullptr when the stack has
  // none) and the first LRU tier's entry count (the
  // cache_sizes().verdict_entries gauge).
  VerdictStore* local_store() const;
  size_t lru_entries() const;

  // True when any tier still has buffered publishes (used by teardown and
  // tests; the per-call receipts drive steady-state flush scheduling).
  bool HasPendingWrites() const;

 private:
  TierStack() = default;

  // Active tiers, probe order. descriptors_ covers these AND the
  // quarantined ones; actives_[i].second is the index into descriptors_.
  std::vector<std::pair<std::unique_ptr<VerdictTier>, size_t>> actives_;
  std::vector<TierDescriptor> descriptors_;
  // actives_[0, local_tiers_) is the Probe::kLocal prefix.
  size_t local_tiers_ = 0;
};

}  // namespace cqchase

#endif  // CQCHASE_ENGINE_TIER_H_
