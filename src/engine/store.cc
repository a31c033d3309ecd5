#include "engine/store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "base/string_util.h"

namespace cqchase {

namespace {

constexpr char kSnapshotFile[] = "snapshot.cqvs";
constexpr char kLogFile[] = "log.cqvl";

// mkdir -p: creates every missing component of `dir`.
Status MakeDirs(const std::string& dir) {
  std::string prefix;
  prefix.reserve(dir.size());
  for (size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') {
      prefix.push_back(dir[i]);
      continue;
    }
    if (i < dir.size()) prefix.push_back('/');
    if (prefix.empty() || prefix == "/") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal(StrCat("mkdir ", prefix, " failed: ",
                                     std::strerror(errno)));
    }
  }
  return Status::OK();
}

// Reads the whole file; kNotFound when it does not exist.
Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return Status::NotFound(path);
    return Status::Internal(StrCat("open ", path, " failed: ",
                                   std::strerror(errno)));
  }
  std::string out;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Internal(StrCat("read ", path, " failed"));
  }
  return out;
}

// Parent directory of `path` ("." when there is no slash).
std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

// fsyncs the directory holding `path`, making a just-created or
// just-renamed entry itself crash-durable (the file's fsync alone does not
// persist the directory entry pointing at it).
void SyncDir(const std::string& path) {
  const int fd = ::open(DirName(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal(StrCat("open ", tmp, " failed: ",
                                   std::strerror(errno)));
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  // fsync, not just fflush: Compact() deletes the log right after this
  // rename lands, so the snapshot must be on the platter (not the page
  // cache) before the only other copy of the data goes away.
  const bool sync_error =
      std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0;
  std::fclose(f);
  if (written != bytes.size() || sync_error) {
    std::remove(tmp.c_str());
    return Status::Internal(StrCat("write ", tmp, " failed"));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal(StrCat("rename ", tmp, " -> ", path, " failed: ",
                                   std::strerror(errno)));
  }
  SyncDir(path);
  return Status::OK();
}

Status AppendToFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::Internal(StrCat("open ", path, " failed: ",
                                   std::strerror(errno)));
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  // fsync is affordable here because flushes are batched and run off the
  // decision path (on the executor); it is what makes "durable after the
  // next Flush" hold against OS crashes, not just process crashes.
  const bool sync_error =
      std::fflush(f) != 0 || ::fsync(::fileno(f)) != 0;
  std::fclose(f);
  if (written != bytes.size() || sync_error) {
    return Status::Internal(StrCat("append to ", path, " failed"));
  }
  return Status::OK();
}

// The log's leading frame: file identity, checked before any entry is
// believed.
std::string EncodeLogHeader() {
  std::string payload;
  wire::PutU32(payload, kLogMagic);
  wire::PutU32(payload, kStoreFormatVersion);
  wire::PutU64(payload, StoreSchemaFingerprint());
  std::string out;
  wire::PutFramed(out, payload);
  return out;
}

}  // namespace

VerdictStore::VerdictStore(std::string dir, VerdictStoreOptions options)
    : dir_(std::move(dir)), options_(options) {}

Result<std::unique_ptr<VerdictStore>> VerdictStore::Open(
    const std::string& dir, VerdictStoreOptions options) {
  CQCHASE_RETURN_IF_ERROR(MakeDirs(dir));
  // Single-owner exclusion: a second opener — same process or another —
  // must not interleave log appends or compact files out from under the
  // first. flock, not a lock *file*: the kernel releases it when the
  // process dies, so a crash never wedges the store.
  const std::string lock_path = StrCat(dir, "/LOCK");
  const int lock_fd =
      ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (lock_fd < 0) {
    return Status::Internal(StrCat("open ", lock_path, " failed: ",
                                   std::strerror(errno)));
  }
  if (::flock(lock_fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(lock_fd);
    return Status::FailedPrecondition(
        StrCat("verdict store ", dir, " is locked by another VerdictStore; "
               "a store directory has exactly one owner at a time"));
  }
  std::unique_ptr<VerdictStore> store(new VerdictStore(dir, options));
  store->lock_fd_ = lock_fd;
  CQCHASE_RETURN_IF_ERROR(store->LoadSnapshot());
  CQCHASE_RETURN_IF_ERROR(store->ReplayLog());
  store->opened_ = true;
  return store;
}

VerdictStore::~VerdictStore() {
  if (opened_) {
    Flush();
    if (options_.compact_on_close) Compact();
  }
  if (lock_fd_ >= 0) ::close(lock_fd_);  // close releases the flock
}

std::string VerdictStore::SnapshotPath() const {
  return StrCat(dir_, "/", kSnapshotFile);
}

std::string VerdictStore::LogPath() const { return StrCat(dir_, "/", kLogFile); }

void VerdictStore::Quarantine(const std::string& path) {
  const std::string target = path + ".quarantine";
  std::remove(target.c_str());  // at most one quarantine generation is kept
  if (std::rename(path.c_str(), target.c_str()) == 0) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.quarantined_files;
  }
}

Status VerdictStore::LoadSnapshot() {
  const std::string path = SnapshotPath();
  Result<std::string> bytes = ReadFile(path);
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) return Status::OK();
    return bytes.status();
  }
  wire::ByteReader reader(*bytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t fingerprint = 0;
  uint64_t count = 0;
  uint64_t payload_size = 0;
  uint64_t payload_checksum = 0;
  const bool header_ok =
      reader.ReadU32(&magic) && reader.ReadU32(&version) &&
      reader.ReadU64(&fingerprint) && reader.ReadU64(&count) &&
      reader.ReadU64(&payload_size) && reader.ReadU64(&payload_checksum);
  // Every failure below means the same thing: these bytes cannot be trusted
  // as verdicts. Quarantine the file and start empty — a rebuilt cache is
  // merely cold, a believed corrupt one is wrong. Only the current format
  // version decodes; an older or newer file is rebuilt, never migrated.
  if (!header_ok || magic != kSnapshotMagic ||
      version != kStoreFormatVersion ||
      fingerprint != StoreSchemaFingerprint() ||
      payload_size != reader.remaining()) {
    Quarantine(path);
    return Status::OK();
  }
  std::string_view payload;
  if (!reader.ReadBytes(payload_size, &payload) ||
      wire::Fnv1a64(payload) != payload_checksum) {
    Quarantine(path);
    return Status::OK();
  }
  // The count is header data the payload checksum does not cover, so it is
  // as hostile as any other byte: an entry is at least 37 bytes (fixed
  // fields + an empty key), and a count the payload cannot possibly hold
  // means a corrupt header — quarantine before reserve() turns it into an
  // allocation blow-up.
  constexpr uint64_t kMinEntryBytes = 37;
  if (count > payload_size / kMinEntryBytes) {
    Quarantine(path);
    return Status::OK();
  }
  std::unordered_map<std::string, StoredVerdict> loaded;
  loaded.reserve(count);
  wire::ByteReader entries(payload);
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    StoredVerdict verdict;
    if (!DecodeVerdictEntry(entries, &key, &verdict).ok()) {
      Quarantine(path);
      return Status::OK();
    }
    loaded.emplace(std::move(key), verdict);
  }
  if (entries.remaining() != 0) {  // count and payload must agree exactly
    Quarantine(path);
    return Status::OK();
  }
  std::lock_guard<std::mutex> lock(mu_);
  counters_.snapshot_entries_loaded += loaded.size();
  map_ = std::move(loaded);
  return Status::OK();
}

Status VerdictStore::ReplayLog() {
  const std::string path = LogPath();
  Result<std::string> bytes = ReadFile(path);
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) return Status::OK();
    return bytes.status();
  }
  wire::ByteReader reader(*bytes);
  std::string header;
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t fingerprint = 0;
  bool header_ok = wire::ReadFramed(reader, &header).ok();
  if (header_ok) {
    wire::ByteReader hr(header);
    header_ok = hr.ReadU32(&magic) && hr.ReadU32(&version) &&
                hr.ReadU64(&fingerprint) && magic == kLogMagic &&
                version == kStoreFormatVersion &&
                fingerprint == StoreSchemaFingerprint();
  }
  if (!header_ok) {
    // A log whose identity frame is wrong is untrusted wholesale — unlike a
    // torn tail, there is no prefix known to be ours.
    Quarantine(path);
    return Status::OK();
  }
  uint64_t replayed = 0;
  size_t good_end = reader.position();
  while (reader.remaining() > 0) {
    std::string payload;
    std::string key;
    StoredVerdict verdict;
    if (!wire::ReadFramed(reader, &payload).ok()) break;
    wire::ByteReader entry(payload);
    // Trailing bytes after the entry are as untrusted as a short one (the
    // snapshot path rejects the same condition): treat the frame as the
    // start of the torn tail.
    if (!DecodeVerdictEntry(entry, &key, &verdict).ok() ||
        entry.remaining() != 0) {
      break;
    }
    std::lock_guard<std::mutex> lock(mu_);
    map_[std::move(key)] = verdict;  // log is newer than snapshot: overwrite
    ++replayed;
    good_end = reader.position();
  }
  const size_t torn = bytes->size() - good_end;
  if (torn > 0) {
    // Crash-torn tail: keep the salvaged prefix, drop the bytes after it so
    // future appends land on a clean frame boundary.
    if (::truncate(path.c_str(), static_cast<off_t>(good_end)) != 0) {
      return Status::Internal(StrCat("truncate ", path, " failed: ",
                                     std::strerror(errno)));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  counters_.log_entries_replayed += replayed;
  counters_.torn_tail_bytes_dropped += torn;
  log_has_header_ = true;
  return Status::OK();
}

std::optional<StoredVerdict> VerdictStore::Lookup(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

void VerdictStore::Put(const std::string& key, const StoredVerdict& verdict) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.max_entries > 0 &&
      map_.size() >= options_.max_entries &&
      map_.find(key) == map_.end()) {
    // At the bound a new key is refused outright (overwrites still land):
    // the entry is simply recomputed by whoever asks next, which is the
    // correct degradation for a cache — bounded memory, never a wrong
    // answer. An LRU-style eviction would also need log rewriting to stay
    // durable-consistent; refusal keeps the on-disk format untouched.
    ++counters_.records_capped;
    return;
  }
  map_[key] = verdict;
  pending_.emplace_back(key, verdict);
  ++counters_.appends;
  // Backpressure valve: if flushes keep failing (full disk), requeued
  // batches plus fresh Puts would otherwise grow pending_ without bound.
  // Beyond the cap the *oldest* pending entries lose their durability
  // claim (they stay served from map_; records_dropped says how many) —
  // bounded memory beats an OOM for a cache tier.
  constexpr size_t kMaxPending = 1 << 16;
  if (pending_.size() > kMaxPending) {
    const size_t excess = pending_.size() - kMaxPending;
    pending_.erase(pending_.begin(), pending_.begin() + excess);
    counters_.records_dropped += excess;
  }
}

bool VerdictStore::PutIfAbsent(const std::string& key,
                               const StoredVerdict& verdict) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.max_entries > 0 &&
      map_.size() >= options_.max_entries &&
      map_.find(key) == map_.end()) {
    ++counters_.records_capped;
    return false;
  }
  if (!map_.emplace(key, verdict).second) return false;
  pending_.emplace_back(key, verdict);
  ++counters_.appends;
  return true;
}

Status VerdictStore::Flush() {
  std::lock_guard<std::mutex> io_lock(io_mu_);
  std::vector<std::pair<std::string, StoredVerdict>> batch;
  bool need_header = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) return Status::OK();
    batch.swap(pending_);
    need_header = !log_has_header_;
  }
  std::string out;
  if (need_header) out = EncodeLogHeader();
  std::string entry;
  for (const auto& [key, verdict] : batch) {
    entry.clear();
    EncodeVerdictEntry(key, verdict, entry);
    wire::PutFramed(out, entry);
  }
  Status appended = AppendToFile(LogPath(), out);
  // A header write means the log file was just created; its directory
  // entry must reach the platter too, or an OS crash could drop the whole
  // file that fsync just made durable.
  if (appended.ok() && need_header) SyncDir(LogPath());
  std::lock_guard<std::mutex> lock(mu_);
  if (!appended.ok()) {
    // Entries stay served from memory; requeue them so a later flush (or
    // close) retries durability instead of silently dropping them.
    pending_.insert(pending_.begin(),
                    std::make_move_iterator(batch.begin()),
                    std::make_move_iterator(batch.end()));
    ++counters_.write_errors;
    return appended;
  }
  log_has_header_ = true;
  ++counters_.flushes;
  counters_.records_flushed += batch.size();
  return Status::OK();
}

Status VerdictStore::Compact() {
  std::lock_guard<std::mutex> io_lock(io_mu_);
  std::vector<std::pair<std::string, StoredVerdict>> entries;
  std::vector<std::pair<std::string, StoredVerdict>> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(map_.size());
    for (const auto& [key, verdict] : map_) entries.emplace_back(key, verdict);
    // Everything pending is in map_, hence in the snapshot being written —
    // but its durability now rides on that write succeeding, so it is only
    // dropped below once the rename lands (on failure it is requeued for
    // the log, like a failed Flush).
    drained.swap(pending_);
  }
  std::string payload;
  for (const auto& [key, verdict] : entries) {
    EncodeVerdictEntry(key, verdict, payload);
  }
  std::string file;
  wire::PutU32(file, kSnapshotMagic);
  wire::PutU32(file, kStoreFormatVersion);
  wire::PutU64(file, StoreSchemaFingerprint());
  wire::PutU64(file, entries.size());
  wire::PutU64(file, payload.size());
  wire::PutU64(file, wire::Fnv1a64(payload));
  file += payload;
  Status written = WriteFileAtomic(SnapshotPath(), file);
  std::lock_guard<std::mutex> lock(mu_);
  if (!written.ok()) {
    pending_.insert(pending_.begin(),
                    std::make_move_iterator(drained.begin()),
                    std::make_move_iterator(drained.end()));
    ++counters_.write_errors;
    return written;
  }
  if (std::remove(LogPath().c_str()) != 0 && errno != ENOENT &&
      ::truncate(LogPath().c_str(), 0) != 0) {
    // Could neither delete nor empty the old log: keep its header alive so
    // the next Flush appends valid frames to it, instead of embedding a
    // second header mid-file — that header's magic would decode as a bogus
    // entry and get everything after it truncated as a torn tail on the
    // next Open. The log's surviving entries merely duplicate the snapshot
    // and replay harmlessly.
    ++counters_.write_errors;
  } else {
    log_has_header_ = false;
  }
  ++counters_.compactions;
  return Status::OK();
}

DeltaReceipt VerdictStore::ApplyDelta(const LineageDelta& ld) {
  DeltaReceipt receipt;
  if (ld.empty()) return receipt;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Two passes so the outcome is independent of map iteration order: pass
    // 1 carries every untouched entry (among them any entry computed
    // directly under the new Σ), pass 2 emplaces migrated survivors — so a
    // direct new-Σ incumbent always wins the rekeyed slot (it is at least
    // as precise as a survivor). A single pass would let whichever the hash
    // order visited first win.
    std::unordered_map<std::string, StoredVerdict> next;
    next.reserve(map_.size());
    std::vector<std::pair<std::string, StoredVerdict>> survivors;
    for (auto& [key, verdict] : map_) {
      std::string rekeyed;
      const RetagDecision decision =
          ApplyVerdictDelta(ld, key, verdict, &rekeyed);
      receipt.Count(decision);
      switch (decision) {
        case RetagDecision::kUntouched:
          next.emplace(key, std::move(verdict));
          break;
        case RetagDecision::kKeepExact:
        case RetagDecision::kKeepMonotone:
          survivors.emplace_back(std::move(rekeyed), std::move(verdict));
          break;
        case RetagDecision::kDrop:
          break;
      }
    }
    for (auto& [key, verdict] : survivors) {
      next.emplace(std::move(key), std::move(verdict));
    }
    map_ = std::move(next);
    // pending_ mirrors map_ entries awaiting their log append; retag it the
    // same way (uncounted — these are the same logical entries) so that if
    // the compaction below fails, the next Flush still appends
    // correctly-keyed frames instead of resurrecting old-Σ keys. Survivors
    // land *before* untouched entries: log replay lets the later frame win,
    // so a direct new-Σ incumbent must be appended after the survivor that
    // rekeyed onto its slot.
    std::vector<std::pair<std::string, StoredVerdict>> keep;
    std::vector<std::pair<std::string, StoredVerdict>> untouched;
    keep.reserve(pending_.size());
    for (auto& [key, verdict] : pending_) {
      std::string rekeyed;
      switch (ApplyVerdictDelta(ld, key, verdict, &rekeyed)) {
        case RetagDecision::kUntouched:
          untouched.emplace_back(std::move(key), std::move(verdict));
          break;
        case RetagDecision::kKeepExact:
        case RetagDecision::kKeepMonotone:
          keep.emplace_back(std::move(rekeyed), std::move(verdict));
          break;
        case RetagDecision::kDrop:
          break;
      }
    }
    for (auto& entry : untouched) keep.emplace_back(std::move(entry));
    pending_ = std::move(keep);
  }
  // One atomic rename flips the durable state to the new Σ. A crash before
  // it lands leaves the old Σ's files — stale but never wrong: old-Σ keys
  // are simply unreachable from new-Σ queries, and a re-applied delta
  // migrates them again. A failed compact is counted in write_errors and
  // retried by the next Flush/Compact; memory is already migrated.
  Compact();
  return receipt;
}

size_t VerdictStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::vector<std::pair<std::string, StoredVerdict>> VerdictStore::Entries()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, StoredVerdict>> out;
  out.reserve(map_.size());
  for (const auto& [key, verdict] : map_) out.emplace_back(key, verdict);
  return out;
}

bool VerdictStore::has_pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !pending_.empty();
}

VerdictStoreStats VerdictStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  VerdictStoreStats out = counters_;
  out.entries = map_.size();
  out.max_entries = options_.max_entries;
  return out;
}

}  // namespace cqchase
