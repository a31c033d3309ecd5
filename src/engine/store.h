// VerdictStore: the engine's persistent verdict tier — a durable map from
// isomorphism-invariant canonical task keys to containment verdicts.
//
// Johnson–Klug verdicts are pure functions of (canonical query pair, Σ,
// chase variant), all of which are folded into the key, so persisting them
// is sound by construction: a stored entry can never go stale because the
// answer it memoizes can never change. The only way a store becomes invalid
// is a *format* change — the byte layout or the canonical-key scheme — and
// both are guarded by the version + schema fingerprint in every file header
// (engine/serialize.h). Only kStoreFormatVersion files are read; a file of
// any other version, one whose fingerprint disagrees, or one that fails any
// checksum is quarantined (renamed aside) and the store rebuilds from
// empty: a cache must recompute rather than trust a byte it cannot verify.
//
// On-disk layout, two files in the store directory:
//
//   snapshot.cqvs — the compacted state: one header (magic, version,
//     fingerprint, entry count, payload size, payload checksum) + all
//     entries as one checksummed payload. Written atomically (temp file +
//     rename) by Compact(), which runs on close.
//   log.cqvl — the write-behind append log: a header frame, then one
//     checksummed frame per entry appended since the last compaction. A
//     crash mid-append leaves a torn tail; Open() salvages every whole
//     frame before it and truncates the rest. Opening state is
//     snapshot ∪ log (log wins on duplicate keys — it is newer).
//
// Concurrency: Lookup/Put take the map mutex only (writes go to the map and
// a pending buffer immediately — a Put is visible to Lookup before it is
// durable); Flush/Compact serialize file I/O under a separate mutex so the
// write-behind flush never blocks readers. The ContainmentEngine runs Flush
// off the hot path on its executor.
//
// The full store is memory-resident (an entry is a canonical key + fixed
// fields; the key embeds the Σ key, so entries run from ~230 bytes on a
// 3-IND Σ to ~5.4 KB on a 300-IND one), which is what makes Lookup a
// mutex-and-hash-probe instead of disk I/O; the pending buffer is bounded
// (oldest entries shed their durability claim under sustained flush
// failure, see records_dropped), and the map itself takes an optional
// VerdictStoreOptions::max_entries bound — past it, new keys are refused
// (records_capped) rather than grown into an OOM. Spilling / mmap'd
// snapshot serving for billion-entry stores stays future work (ROADMAP).
#ifndef CQCHASE_ENGINE_STORE_H_
#define CQCHASE_ENGINE_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/status.h"
#include "engine/lineage.h"
#include "engine/serialize.h"

namespace cqchase {

struct VerdictStoreOptions {
  // Compact (snapshot rewrite + log truncation) on destruction. Disable for
  // crash-shaped tests and read-mostly consumers that should not pay the
  // rewrite; pending appends are still flushed to the log either way.
  bool compact_on_close = true;

  // Capacity knob for the memory-resident map: once it holds this many
  // entries, further Puts of *new* keys are refused (counted in
  // records_capped) instead of growing without bound — the single-node
  // answer to "memory-resident in full" (ROADMAP). Overwrites of existing
  // keys always land. Open-time restore is exempt: entries already durable
  // are never dropped for a cap that shrank after they were written. 0 =
  // unbounded (the historical behavior).
  uint64_t max_entries = 0;
};

// Monotone counters plus the `entries` gauge; read via stats().
struct VerdictStoreStats {
  uint64_t entries = 0;                  // in-memory map size (gauge)
  uint64_t snapshot_entries_loaded = 0;  // restored from snapshot at Open
  uint64_t log_entries_replayed = 0;     // replayed from the append log
  uint64_t appends = 0;                  // Put() calls accepted
  uint64_t flushes = 0;                  // Flush() calls that wrote records
  uint64_t records_flushed = 0;          // entries made durable in the log
  uint64_t compactions = 0;
  uint64_t quarantined_files = 0;        // files renamed aside as untrusted
  uint64_t torn_tail_bytes_dropped = 0;  // log bytes discarded at Open
  uint64_t write_errors = 0;             // failed Flush/Compact attempts
  uint64_t records_dropped = 0;          // pending entries shed under the
                                         // backpressure cap (still served
                                         // from memory, not durable)
  uint64_t max_entries = 0;              // configured map bound (0 = none)
  uint64_t records_capped = 0;           // Puts refused at the max_entries
                                         // bound (recomputed next time, not
                                         // stored)
};

class VerdictStore {
 public:
  // Opens (creating the directory if needed) and restores snapshot + log.
  // Corrupt, truncated or version/fingerprint-mismatched files are
  // quarantined — renamed to "<file>.quarantine" — and the store opens
  // empty in their place; only genuine filesystem errors (unmkdirable
  // directory, unreadable-but-present file) fail the Open.
  //
  // A store directory has exactly one owner at a time: Open takes an
  // exclusive flock on "<dir>/LOCK" (released by the kernel even on crash)
  // and returns kFailedPrecondition while another VerdictStore — in this
  // process or any other — holds it. Without this, a second writer could
  // interleave log frames mid-append or compact the log out from under the
  // first, corrupting durable state.
  static Result<std::unique_ptr<VerdictStore>> Open(
      const std::string& dir, VerdictStoreOptions options = {});

  // Flushes pending appends; compacts when options say so.
  ~VerdictStore();

  VerdictStore(const VerdictStore&) = delete;
  VerdictStore& operator=(const VerdictStore&) = delete;

  // Thread-safe point lookup.
  std::optional<StoredVerdict> Lookup(const std::string& key) const;

  // Inserts or overwrites; visible to Lookup immediately, durable after the
  // next Flush. Thread-safe.
  void Put(const std::string& key, const StoredVerdict& verdict);

  // Inserts only when `key` is absent; returns whether it inserted. One
  // lock round-trip where a Lookup-then-Put would take two (and would race
  // another inserter between them). For callers that bypass cache reads —
  // certificate requests — and so cannot know whether the key is new.
  bool PutIfAbsent(const std::string& key, const StoredVerdict& verdict);

  // Appends every pending entry to the log as one batch of checksummed
  // frames. The write-behind half of the write path: the engine schedules
  // this on its executor so the decision path never waits on a disk.
  Status Flush();

  // Rewrites the snapshot from the full map (temp file + rename) and
  // truncates the log. Runs on close; callable any time.
  Status Compact();

  // Migrates every resident entry of the delta's old Σ to the new Σ:
  // survivors are retagged and re-keyed in place (engine/lineage.h decides
  // which survive and at what confidence), touched entries are dropped, and
  // the result is compacted so the on-disk state flips to the new Σ in one
  // atomic rename. Entries keyed under any other Σ are untouched. A failed
  // compaction is counted in write_errors and left for the next Flush /
  // Compact; the in-memory state is already migrated either way.
  DeltaReceipt ApplyDelta(const LineageDelta& ld);

  size_t size() const;
  bool has_pending() const;
  VerdictStoreStats stats() const;
  const std::string& dir() const { return dir_; }

  // Copies every resident entry (unordered). For bulk consumers that seed
  // another map from this store — the authority daemon loads its serving
  // state this way at startup — not for point queries (use Lookup).
  std::vector<std::pair<std::string, StoredVerdict>> Entries() const;

  // Paths of the two store files inside `dir` (exposed for tests and ops).
  std::string SnapshotPath() const;
  std::string LogPath() const;

 private:
  VerdictStore(std::string dir, VerdictStoreOptions options);

  // Load half of Open(); both quarantine instead of trusting bad bytes.
  Status LoadSnapshot();
  Status ReplayLog();
  // Renames `path` to "<path>.quarantine" (replacing any previous
  // quarantine) and counts it.
  void Quarantine(const std::string& path);

  const std::string dir_;
  const VerdictStoreOptions options_;

  mutable std::mutex mu_;  // map_, pending_, counters mutated under it
  std::unordered_map<std::string, StoredVerdict> map_;
  std::vector<std::pair<std::string, StoredVerdict>> pending_;
  VerdictStoreStats counters_;

  // File I/O only; never held while mu_ is (Flush/Compact take io_mu_ first,
  // then mu_ briefly to copy state out).
  std::mutex io_mu_;
  bool log_has_header_ = false;
  int lock_fd_ = -1;  // exclusive flock on <dir>/LOCK for the store's life
  // Set once Open fully succeeded. The destructor's flush/compact only run
  // then: a store torn down on a failed Open must leave the on-disk state
  // exactly as it found it (compacting an empty map over a transiently
  // unreadable snapshot would *erase* every durable verdict).
  bool opened_ = false;
};

}  // namespace cqchase

#endif  // CQCHASE_ENGINE_STORE_H_
