// The persistent verdict store: round-trip fidelity through snapshot and
// log, the quarantine-never-trust policy for version-mismatched / corrupt /
// truncated files, torn-tail salvage, concurrent readers during a
// write-behind flush (this binary runs in the TSan CI stage), and the
// end-to-end restart contract — an engine opened on a populated store
// answers the repeated workload with zero chases built.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "base/string_util.h"
#include "cq/cq_parser.h"
#include "deps/deps_parser.h"
#include "engine/engine.h"
#include "engine/serialize.h"
#include "engine/store.h"
#include "submit_util.h"

namespace cqchase {
namespace {

// --- raw file helpers (tests corrupt files on purpose) -----------------------

std::string ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[4096];
  size_t n = 0;
  while (f != nullptr && (n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  if (f != nullptr) std::fclose(f);
  return out;
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

void AppendRaw(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

// A fresh (cleaned) store directory under the test temp root.
std::string NewStoreDir(const std::string& name) {
  const std::string dir = StrCat(::testing::TempDir(), "/cqchase_", name);
  for (const char* file :
       {"/snapshot.cqvs", "/snapshot.cqvs.tmp", "/snapshot.cqvs.quarantine",
        "/log.cqvl", "/log.cqvl.quarantine", "/LOCK"}) {
    std::remove(StrCat(dir, file).c_str());
  }
  ::rmdir(dir.c_str());
  return dir;
}

StoredVerdict MakeVerdict(uint32_t seed) {
  StoredVerdict v;
  v.contained = (seed % 2) == 0;
  v.chase_outcome = static_cast<uint8_t>(seed % 3);
  v.sigma_class = static_cast<uint8_t>(seed % 6);
  v.strategy = static_cast<uint8_t>(seed % 5);
  v.witness_max_level = seed;
  v.chase_levels = seed + 1;
  v.level_bound = 100ULL * seed;
  v.chase_conjuncts = 7ULL * seed;
  v.certified = (seed % 3) == 0;
  v.certificate_depth = v.certified ? seed : 0;
  return v;
}

void ExpectVerdictEq(const StoredVerdict& a, const StoredVerdict& b) {
  EXPECT_EQ(a.contained, b.contained);
  EXPECT_EQ(a.chase_outcome, b.chase_outcome);
  EXPECT_EQ(a.sigma_class, b.sigma_class);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.witness_max_level, b.witness_max_level);
  EXPECT_EQ(a.chase_levels, b.chase_levels);
  EXPECT_EQ(a.level_bound, b.level_bound);
  EXPECT_EQ(a.chase_conjuncts, b.chase_conjuncts);
  EXPECT_EQ(a.certified, b.certified);
  EXPECT_EQ(a.certificate_depth, b.certificate_depth);
}

std::unique_ptr<VerdictStore> MustOpen(const std::string& dir,
                                       VerdictStoreOptions options = {}) {
  Result<std::unique_ptr<VerdictStore>> store =
      VerdictStore::Open(dir, options);
  EXPECT_TRUE(store.ok()) << store.status();
  return *std::move(store);
}

// --- round trips -------------------------------------------------------------

TEST(StoreTest, RoundTripThroughSnapshot) {
  const std::string dir = NewStoreDir("roundtrip");
  constexpr size_t kEntries = 50;
  {
    std::unique_ptr<VerdictStore> store = MustOpen(dir);
    for (size_t i = 0; i < kEntries; ++i) {
      store->Put(StrCat("key-", i), MakeVerdict(static_cast<uint32_t>(i)));
    }
    EXPECT_EQ(store->size(), kEntries);
    // Close: flush + compact → everything lands in the snapshot.
  }
  EXPECT_TRUE(FileExists(StrCat(dir, "/snapshot.cqvs")));
  EXPECT_FALSE(FileExists(StrCat(dir, "/log.cqvl")));  // truncated away

  std::unique_ptr<VerdictStore> reopened = MustOpen(dir);
  EXPECT_EQ(reopened->size(), kEntries);
  EXPECT_EQ(reopened->stats().snapshot_entries_loaded, kEntries);
  for (size_t i = 0; i < kEntries; ++i) {
    auto hit = reopened->Lookup(StrCat("key-", i));
    ASSERT_TRUE(hit.has_value()) << i;
    ExpectVerdictEq(*hit, MakeVerdict(static_cast<uint32_t>(i)));
  }
  EXPECT_FALSE(reopened->Lookup("missing").has_value());
}

TEST(StoreTest, RoundTripThroughLogWithoutCompaction) {
  const std::string dir = NewStoreDir("logreplay");
  VerdictStoreOptions no_compact;
  no_compact.compact_on_close = false;
  {
    std::unique_ptr<VerdictStore> store = MustOpen(dir, no_compact);
    store->Put("a", MakeVerdict(1));
    store->Put("b", MakeVerdict(2));
    store->Put("a", MakeVerdict(3));  // overwrite: last write wins on replay
    // Close flushes the pending appends to the log but leaves no snapshot.
  }
  EXPECT_FALSE(FileExists(StrCat(dir, "/snapshot.cqvs")));
  EXPECT_TRUE(FileExists(StrCat(dir, "/log.cqvl")));

  std::unique_ptr<VerdictStore> reopened = MustOpen(dir);
  EXPECT_EQ(reopened->size(), 2u);
  EXPECT_EQ(reopened->stats().log_entries_replayed, 3u);
  ASSERT_TRUE(reopened->Lookup("a").has_value());
  ExpectVerdictEq(*reopened->Lookup("a"), MakeVerdict(3));
  ExpectVerdictEq(*reopened->Lookup("b"), MakeVerdict(2));
}

TEST(StoreTest, LogWinsOverSnapshotOnDuplicateKeys) {
  const std::string dir = NewStoreDir("logwins");
  {
    std::unique_ptr<VerdictStore> store = MustOpen(dir);
    store->Put("k", MakeVerdict(1));
  }  // snapshot holds verdict 1
  VerdictStoreOptions no_compact;
  no_compact.compact_on_close = false;
  {
    std::unique_ptr<VerdictStore> store = MustOpen(dir, no_compact);
    store->Put("k", MakeVerdict(9));
  }  // log holds the newer verdict 9
  std::unique_ptr<VerdictStore> reopened = MustOpen(dir);
  ASSERT_TRUE(reopened->Lookup("k").has_value());
  ExpectVerdictEq(*reopened->Lookup("k"), MakeVerdict(9));
}

TEST(StoreTest, ExplicitFlushMakesEntriesDurableWithoutCompaction) {
  const std::string dir = NewStoreDir("flushdurable");
  VerdictStoreOptions no_compact;
  no_compact.compact_on_close = false;
  {
    std::unique_ptr<VerdictStore> store = MustOpen(dir, no_compact);
    store->Put("k", MakeVerdict(4));
    EXPECT_TRUE(store->has_pending());
    ASSERT_TRUE(store->Flush().ok());
    EXPECT_FALSE(store->has_pending());
    EXPECT_EQ(store->stats().records_flushed, 1u);
    // Nothing is pending at close, so the reopen below reads what the
    // explicit mid-life Flush wrote, not a close-time flush.
  }
  std::unique_ptr<VerdictStore> reopened = MustOpen(dir, no_compact);
  ASSERT_TRUE(reopened->Lookup("k").has_value());
}

TEST(StoreTest, FailedOpenLeavesDurableStateUntouched) {
  const std::string dir = NewStoreDir("failedopen");
  VerdictStoreOptions no_compact;
  no_compact.compact_on_close = false;
  {
    std::unique_ptr<VerdictStore> store = MustOpen(dir, no_compact);
    store->Put("survivor-1", MakeVerdict(1));
    store->Put("survivor-2", MakeVerdict(2));
  }  // durable state: log.cqvl with two entries, no snapshot

  // A snapshot that is present but unreadable (here: a directory at its
  // path — fopen succeeds, fread fails) must fail the Open *without* the
  // teardown compacting an empty map over the durable files.
  const std::string snapshot = StrCat(dir, "/snapshot.cqvs");
  ASSERT_EQ(::mkdir(snapshot.c_str(), 0755), 0);
  Result<std::unique_ptr<VerdictStore>> failed = VerdictStore::Open(dir);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(FileExists(StrCat(dir, "/log.cqvl")));  // log untouched

  // Clear the obstruction: everything is still there.
  ASSERT_EQ(::rmdir(snapshot.c_str()), 0);
  std::unique_ptr<VerdictStore> recovered = MustOpen(dir);
  EXPECT_EQ(recovered->size(), 2u);
  ASSERT_TRUE(recovered->Lookup("survivor-1").has_value());
  ASSERT_TRUE(recovered->Lookup("survivor-2").has_value());
}

TEST(StoreTest, LogFrameWithTrailingGarbageTruncatedAsTorn) {
  const std::string dir = NewStoreDir("frametrailing");
  VerdictStoreOptions no_compact;
  no_compact.compact_on_close = false;
  {
    std::unique_ptr<VerdictStore> store = MustOpen(dir, no_compact);
    store->Put("good", MakeVerdict(1));
  }
  // Append a checksummed frame whose payload is a valid entry plus extra
  // bytes — the shape an unversioned future format change would take. It
  // must not replay; it marks the start of the dropped tail.
  std::string payload;
  EncodeVerdictEntry("evil", MakeVerdict(2), payload);
  payload += "\x01\x02trailing";
  std::string frame;
  wire::PutFramed(frame, payload);
  AppendRaw(StrCat(dir, "/log.cqvl"), frame);

  std::unique_ptr<VerdictStore> store = MustOpen(dir, no_compact);
  EXPECT_EQ(store->size(), 1u);
  EXPECT_FALSE(store->Lookup("evil").has_value());
  EXPECT_EQ(store->stats().torn_tail_bytes_dropped, frame.size());
}

TEST(StoreTest, SecondOpenerRejectedWhileLocked) {
  const std::string dir = NewStoreDir("locked");
  std::unique_ptr<VerdictStore> owner = MustOpen(dir);
  // Same process or another: a store directory has exactly one owner, so a
  // second Open must fail cleanly instead of interleaving log writes.
  Result<std::unique_ptr<VerdictStore>> second = VerdictStore::Open(dir);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  owner.reset();  // releases the flock
  EXPECT_NE(MustOpen(dir), nullptr);
}

TEST(StoreTest, PutIfAbsentInsertsOnceOnly) {
  const std::string dir = NewStoreDir("putifabsent");
  std::unique_ptr<VerdictStore> store = MustOpen(dir);
  EXPECT_TRUE(store->PutIfAbsent("k", MakeVerdict(1)));
  EXPECT_FALSE(store->PutIfAbsent("k", MakeVerdict(2)));  // first wins
  ASSERT_TRUE(store->Lookup("k").has_value());
  ExpectVerdictEq(*store->Lookup("k"), MakeVerdict(1));
  EXPECT_EQ(store->stats().appends, 1u);  // one durable record, not two
}

TEST(StoreTest, PendingBufferShedsOldestBeyondCap) {
  const std::string dir = NewStoreDir("backpressure");
  VerdictStoreOptions no_compact;
  no_compact.compact_on_close = false;
  std::unique_ptr<VerdictStore> store = MustOpen(dir, no_compact);
  // Simulate a stuck flusher: Put past the pending cap without flushing.
  constexpr size_t kOverCap = (1 << 16) + 10;
  for (size_t i = 0; i < kOverCap; ++i) {
    store->Put(StrCat("k", i), MakeVerdict(static_cast<uint32_t>(i)));
  }
  EXPECT_EQ(store->stats().records_dropped, 10u);
  // Shed entries are still served from memory — only durability was lost.
  EXPECT_TRUE(store->Lookup("k0").has_value());
  EXPECT_EQ(store->size(), kOverCap);
}

// --- quarantine: version / fingerprint / corruption --------------------------

// A syntactically valid snapshot whose header fields are caller-chosen.
std::string CraftSnapshot(uint32_t magic, uint32_t version,
                          uint64_t fingerprint) {
  std::string payload;  // zero entries
  std::string file;
  wire::PutU32(file, magic);
  wire::PutU32(file, version);
  wire::PutU64(file, fingerprint);
  wire::PutU64(file, 0);  // count
  wire::PutU64(file, payload.size());
  wire::PutU64(file, wire::Fnv1a64(payload));
  return file + payload;
}

// What a format-v1 build wrote into its file headers: StoreSchemaFingerprint
// over the v1 entry layout (no Σ-lineage fields). Frozen here so the v1
// files below are byte-exact.
constexpr uint64_t kV1SchemaFingerprint = 0x23ff9631d2e23c96ULL;

// One entry in the v1 layout, byte for byte: no confidence / lineage /
// used-set fields.
void EncodeV1Entry(const std::string& key, bool contained, std::string& out) {
  wire::PutString(out, key);
  wire::PutU8(out, contained ? 1 : 0);
  wire::PutU8(out, 0);   // chase_outcome
  wire::PutU8(out, 0);   // sigma_class
  wire::PutU8(out, 0);   // strategy
  wire::PutU32(out, 0);  // witness_max_level
  wire::PutU32(out, 3);  // chase_levels
  wire::PutU64(out, 7);  // level_bound
  wire::PutU64(out, 5);  // chase_conjuncts
  wire::PutU8(out, 0);   // certified
  wire::PutU32(out, 0);  // certificate_depth
}

// A well-formed v1 snapshot holding `entries`.
std::string EncodeV1Snapshot(
    const std::vector<std::pair<std::string, bool>>& entries) {
  std::string payload;
  for (const auto& [key, contained] : entries) {
    EncodeV1Entry(key, contained, payload);
  }
  std::string file;
  wire::PutU32(file, kSnapshotMagic);
  wire::PutU32(file, 1);
  wire::PutU64(file, kV1SchemaFingerprint);
  wire::PutU64(file, entries.size());
  wire::PutU64(file, payload.size());
  wire::PutU64(file, wire::Fnv1a64(payload));
  return file + payload;
}

// A well-formed v1-headed log holding one entry.
std::string EncodeV1Log() {
  std::string header;
  wire::PutU32(header, kLogMagic);
  wire::PutU32(header, 1);
  wire::PutU64(header, kV1SchemaFingerprint);
  std::string log;
  wire::PutFramed(log, header);
  std::string entry;
  EncodeV1Entry("v1-log-key", true, entry);
  wire::PutFramed(log, entry);
  return log;
}

// Only kStoreFormatVersion decodes: an older file (v1, whose bytes and
// fingerprint are exactly what a v1 build wrote) or a newer one quarantines
// and never reaches the entry decoder.
TEST(StoreTest, VersionMismatchQuarantinesSnapshot) {
  struct Input {
    const char* name;
    const char* file;
    std::string bytes;
  };
  const std::vector<Input> inputs = {
      {"newer", "/snapshot.cqvs",
       CraftSnapshot(kSnapshotMagic, kStoreFormatVersion + 1,
                     StoreSchemaFingerprint())},
      {"older", "/snapshot.cqvs",
       CraftSnapshot(kSnapshotMagic, kStoreFormatVersion - 1,
                     StoreSchemaFingerprint())},
      {"v1_snapshot", "/snapshot.cqvs",
       EncodeV1Snapshot({{"v1-a", true}, {"v1-b", false}})},
      {"v1_log", "/log.cqvl", EncodeV1Log()},
  };
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.name);
    const std::string dir = NewStoreDir(StrCat("version_", input.name));
    ASSERT_TRUE(VerdictStore::Open(dir).ok());  // creates the directory
    const std::string path = StrCat(dir, input.file);
    WriteAll(path, input.bytes);

    std::unique_ptr<VerdictStore> store = MustOpen(dir);
    EXPECT_EQ(store->size(), 0u);
    EXPECT_EQ(store->stats().snapshot_entries_loaded, 0u);
    EXPECT_EQ(store->stats().log_entries_replayed, 0u);
    EXPECT_EQ(store->stats().quarantined_files, 1u);
    EXPECT_FALSE(FileExists(path));
    EXPECT_TRUE(FileExists(path + ".quarantine"));
    // The rebuilt store is fully usable.
    store->Put("fresh", MakeVerdict(1));
    EXPECT_TRUE(store->Flush().ok());
  }
}

TEST(StoreTest, SchemaFingerprintMismatchQuarantinesSnapshot) {
  const std::string dir = NewStoreDir("fingerprint");
  ASSERT_TRUE(VerdictStore::Open(dir).ok());
  const std::string snapshot = StrCat(dir, "/snapshot.cqvs");
  WriteAll(snapshot, CraftSnapshot(kSnapshotMagic, kStoreFormatVersion,
                                   StoreSchemaFingerprint() ^ 1));
  std::unique_ptr<VerdictStore> store = MustOpen(dir);
  EXPECT_EQ(store->size(), 0u);
  EXPECT_EQ(store->stats().quarantined_files, 1u);
  EXPECT_TRUE(FileExists(snapshot + ".quarantine"));
}

TEST(StoreTest, CorruptSnapshotPayloadQuarantined) {
  const std::string dir = NewStoreDir("corrupt");
  {
    std::unique_ptr<VerdictStore> store = MustOpen(dir);
    for (int i = 0; i < 10; ++i) {
      store->Put(StrCat("k", i), MakeVerdict(i));
    }
  }
  const std::string snapshot = StrCat(dir, "/snapshot.cqvs");
  std::string bytes = ReadAll(snapshot);
  bytes[bytes.size() - 3] ^= 0x40;  // bit-flip inside the payload
  WriteAll(snapshot, bytes);

  std::unique_ptr<VerdictStore> store = MustOpen(dir);
  EXPECT_EQ(store->size(), 0u);  // rebuilt, not half-trusted
  EXPECT_EQ(store->stats().quarantined_files, 1u);
  EXPECT_TRUE(FileExists(snapshot + ".quarantine"));
}

TEST(StoreTest, HostileEntryCountQuarantinedInsteadOfAllocating) {
  const std::string dir = NewStoreDir("badcount");
  { MustOpen(dir); }  // creates the directory (and an empty snapshot)
  const std::string snapshot = StrCat(dir, "/snapshot.cqvs");
  // A header whose count the payload cannot possibly hold: the payload
  // checksum does not cover the count field, so without its own bound this
  // would reach unordered_map::reserve(2^60) and terminate the process.
  std::string file;
  wire::PutU32(file, kSnapshotMagic);
  wire::PutU32(file, kStoreFormatVersion);
  wire::PutU64(file, StoreSchemaFingerprint());
  wire::PutU64(file, uint64_t{1} << 60);  // count
  wire::PutU64(file, 0);                  // payload size (empty payload)
  wire::PutU64(file, wire::Fnv1a64(""));
  WriteAll(snapshot, file);

  std::unique_ptr<VerdictStore> store = MustOpen(dir);
  EXPECT_EQ(store->size(), 0u);
  EXPECT_EQ(store->stats().quarantined_files, 1u);
  EXPECT_TRUE(FileExists(snapshot + ".quarantine"));
}

TEST(StoreTest, CountPayloadDisagreementQuarantined) {
  const std::string dir = NewStoreDir("countdisagree");
  { MustOpen(dir); }
  const std::string snapshot = StrCat(dir, "/snapshot.cqvs");
  // Payload holds two valid entries but the header claims one: the file is
  // internally inconsistent and must not be half-believed.
  std::string payload;
  EncodeVerdictEntry("k1", MakeVerdict(1), payload);
  EncodeVerdictEntry("k2", MakeVerdict(2), payload);
  std::string file;
  wire::PutU32(file, kSnapshotMagic);
  wire::PutU32(file, kStoreFormatVersion);
  wire::PutU64(file, StoreSchemaFingerprint());
  wire::PutU64(file, 1);  // count: lies
  wire::PutU64(file, payload.size());
  wire::PutU64(file, wire::Fnv1a64(payload));
  WriteAll(snapshot, file + payload);

  std::unique_ptr<VerdictStore> store = MustOpen(dir);
  EXPECT_EQ(store->size(), 0u);
  EXPECT_EQ(store->stats().quarantined_files, 1u);
}

TEST(StoreTest, TruncatedSnapshotQuarantined) {
  const std::string dir = NewStoreDir("truncated");
  {
    std::unique_ptr<VerdictStore> store = MustOpen(dir);
    for (int i = 0; i < 10; ++i) {
      store->Put(StrCat("k", i), MakeVerdict(i));
    }
  }
  const std::string snapshot = StrCat(dir, "/snapshot.cqvs");
  std::string bytes = ReadAll(snapshot);
  bytes.resize(bytes.size() / 2);
  WriteAll(snapshot, bytes);

  std::unique_ptr<VerdictStore> store = MustOpen(dir);
  EXPECT_EQ(store->size(), 0u);
  EXPECT_EQ(store->stats().quarantined_files, 1u);
}

TEST(StoreTest, ForeignLogHeaderQuarantinesLog) {
  const std::string dir = NewStoreDir("badlog");
  ASSERT_TRUE(VerdictStore::Open(dir).ok());
  const std::string log = StrCat(dir, "/log.cqvl");
  WriteAll(log, "this is not a verdict log at all, not even close");

  std::unique_ptr<VerdictStore> store = MustOpen(dir);
  EXPECT_EQ(store->size(), 0u);
  EXPECT_EQ(store->stats().quarantined_files, 1u);
  EXPECT_FALSE(FileExists(log));
  EXPECT_TRUE(FileExists(log + ".quarantine"));
}

TEST(StoreTest, TornLogTailSalvagesPrefix) {
  const std::string dir = NewStoreDir("torntail");
  VerdictStoreOptions no_compact;
  no_compact.compact_on_close = false;
  {
    std::unique_ptr<VerdictStore> store = MustOpen(dir, no_compact);
    for (int i = 0; i < 3; ++i) {
      store->Put(StrCat("k", i), MakeVerdict(i));
    }
  }
  const std::string log = StrCat(dir, "/log.cqvl");
  const std::string garbage = "\x13\x37torn-mid-append";
  AppendRaw(log, garbage);  // a crash mid-append leaves exactly this shape

  {
    std::unique_ptr<VerdictStore> store = MustOpen(dir, no_compact);
    EXPECT_EQ(store->size(), 3u);  // prefix salvaged
    EXPECT_EQ(store->stats().torn_tail_bytes_dropped, garbage.size());
    EXPECT_EQ(store->stats().quarantined_files, 0u);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(store->Lookup(StrCat("k", i)).has_value()) << i;
    }
    // The tail was truncated away, so appending works from a clean boundary.
    store->Put("after-salvage", MakeVerdict(42));
  }
  std::unique_ptr<VerdictStore> reopened = MustOpen(dir);
  EXPECT_EQ(reopened->size(), 4u);
  EXPECT_EQ(reopened->stats().torn_tail_bytes_dropped, 0u);
  ASSERT_TRUE(reopened->Lookup("after-salvage").has_value());
}

// --- capacity bound ----------------------------------------------------------

TEST(StoreTest, MaxEntriesRefusesNewKeysPastTheCap) {
  const std::string dir = NewStoreDir("capped");
  VerdictStoreOptions options;
  options.max_entries = 3;
  std::unique_ptr<VerdictStore> store = MustOpen(dir, options);
  for (uint32_t i = 0; i < 3; ++i) {
    store->Put(StrCat("k", i), MakeVerdict(i));
  }
  EXPECT_EQ(store->size(), 3u);

  // At the bound: new keys are refused and counted; the cache stays
  // bounded, the asker just recomputes.
  store->Put("k3", MakeVerdict(3));
  EXPECT_FALSE(store->PutIfAbsent("k4", MakeVerdict(4)));
  EXPECT_EQ(store->size(), 3u);
  EXPECT_FALSE(store->Lookup("k3").has_value());
  VerdictStoreStats stats = store->stats();
  EXPECT_EQ(stats.records_capped, 2u);
  EXPECT_EQ(stats.max_entries, 3u);
  EXPECT_EQ(stats.appends, 3u);  // refused Puts never reach the log

  // Overwrites of resident keys still land (they grow nothing).
  store->Put("k1", MakeVerdict(42));
  ASSERT_TRUE(store->Lookup("k1").has_value());
  EXPECT_EQ(store->Lookup("k1")->witness_max_level, 42u);
  EXPECT_EQ(store->size(), 3u);
}

TEST(StoreTest, MaxEntriesExemptsOpenTimeRestore) {
  const std::string dir = NewStoreDir("capped_restore");
  {
    std::unique_ptr<VerdictStore> store = MustOpen(dir);
    for (uint32_t i = 0; i < 5; ++i) {
      store->Put(StrCat("k", i), MakeVerdict(i));
    }
  }
  // A cap smaller than the durable population must not drop entries that
  // are already paid for — it only gates growth.
  VerdictStoreOptions options;
  options.max_entries = 2;
  std::unique_ptr<VerdictStore> store = MustOpen(dir, options);
  EXPECT_EQ(store->size(), 5u);
  store->Put("k9", MakeVerdict(9));
  EXPECT_EQ(store->size(), 5u);
  EXPECT_EQ(store->stats().records_capped, 1u);
}

// --- concurrency (TSan CI stage) ---------------------------------------------

TEST(StoreTest, ConcurrentReadersDuringWriteBehindFlush) {
  const std::string dir = NewStoreDir("concurrent");
  std::unique_ptr<VerdictStore> store = MustOpen(dir);
  constexpr int kWrites = 400;
  std::atomic<bool> done{false};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&store, &done, t] {
      uint64_t hits = 0;
      int i = 0;
      while (!done.load(std::memory_order_acquire)) {
        if (store->Lookup(StrCat("k", (i + t) % kWrites)).has_value()) ++hits;
        ++i;
      }
      (void)hits;
    });
  }
  // The writer interleaves Puts with the flushes the engine would normally
  // run on its executor; readers must never block on, or race with, the
  // file I/O.
  for (int i = 0; i < kWrites; ++i) {
    store->Put(StrCat("k", i), MakeVerdict(i));
    if (i % 16 == 0) {
      ASSERT_TRUE(store->Flush().ok());
    }
  }
  ASSERT_TRUE(store->Flush().ok());
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(store->size(), static_cast<size_t>(kWrites));
  EXPECT_EQ(store->stats().records_flushed, static_cast<uint64_t>(kWrites));
}

// --- engine integration: the restart contract --------------------------------

class StoreEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.AddRelation("R", {"a", "b"}).ok());
    ASSERT_TRUE(catalog_.AddRelation("S", {"x", "y"}).ok());
    deps_ = *ParseDependencies(catalog_, "R[2] <= S[1]");
  }

  ConjunctiveQuery Parse(const std::string& text) {
    Result<ConjunctiveQuery> q = ParseQuery(catalog_, symbols_, text);
    EXPECT_TRUE(q.ok()) << q.status();
    return *std::move(q);
  }

  // The in-memory LRU with a local-store tier at `dir` behind it.
  static EngineConfig StoreConfig(const std::string& dir) {
    EngineConfig config;
    config.tiers = {TierSpec::Lru(config.verdict_cache_capacity),
                    TierSpec::LocalStore(dir)};
    return config;
  }

  Catalog catalog_;
  SymbolTable symbols_;
  DependencySet deps_;
};

TEST_F(StoreEngineTest, StoreTierRequiresEnableCache) {
  // Without the canonicalization layer there are no keys to probe the
  // store with; an opened-but-dead tier would look healthy forever, so the
  // engine refuses it loudly instead.
  EngineConfig config = StoreConfig(NewStoreDir("engine_nocache"));
  config.enable_cache = false;
  ContainmentEngine engine(&catalog_, &symbols_, config);
  EXPECT_EQ(engine.store(), nullptr);
  EXPECT_EQ(engine.store_status().code(), StatusCode::kFailedPrecondition);
  // The engine itself still serves.
  Result<EngineVerdict> v = engine.Check(
      Parse("ans(u) :- R(u, v)"), Parse("ans(u) :- R(u, v), S(v, w)"), deps_);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->report.contained);
}

TEST_F(StoreEngineTest, StoreDisabledByDefault) {
  ContainmentEngine engine(&catalog_, &symbols_);
  EXPECT_EQ(engine.store(), nullptr);
  EXPECT_TRUE(engine.store_status().ok());
  ConjunctiveQuery q = Parse("ans(u) :- R(u, v)");
  ConjunctiveQuery qp = Parse("ans(u) :- R(u, v), S(v, w)");
  Result<EngineVerdict> v = engine.Check(q, qp, deps_);
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->store_hit);
  EXPECT_EQ(engine.stats().store_hits, 0u);
  EXPECT_EQ(engine.stats().store_writes, 0u);
}

TEST_F(StoreEngineTest, RestartAnswersFromStoreWithZeroChases) {
  const std::string dir = NewStoreDir("engine_restart");
  ConjunctiveQuery q = Parse("ans(u) :- R(u, v)");
  ConjunctiveQuery qp = Parse("ans(u) :- R(u, v), S(v, w)");
  ConjunctiveQuery q2 = Parse("ans(u) :- R(u, v)");
  ConjunctiveQuery qp2 = Parse("ans(u) :- S(u, w)");

  const EngineConfig config = StoreConfig(dir);

  bool contained_1 = false;
  bool contained_2 = false;
  {
    // "Process A": decides, persists, shuts down cleanly.
    ContainmentEngine a(&catalog_, &symbols_, config);
    ASSERT_NE(a.store(), nullptr) << a.store_status();
    Result<EngineVerdict> v1 = a.Check(q, qp, deps_);
    Result<EngineVerdict> v2 = a.Check(q2, qp2, deps_);
    ASSERT_TRUE(v1.ok());
    ASSERT_TRUE(v2.ok());
    contained_1 = v1->report.contained;
    contained_2 = v2->report.contained;
    EXPECT_TRUE(contained_1);    // the IND supplies the S conjunct
    EXPECT_FALSE(contained_2);   // wrong column: no S(u, _) arises
    EXPECT_GT(a.stats().chases_built, 0u);
    EXPECT_EQ(a.stats().store_writes, 2u);
  }

  // "Process B": same store path, cold in-memory caches.
  ContainmentEngine b(&catalog_, &symbols_, config);
  ASSERT_NE(b.store(), nullptr) << b.store_status();
  EXPECT_EQ(b.store()->size(), 2u);
  Result<EngineVerdict> v1 = b.Check(q, qp, deps_);
  Result<EngineVerdict> v2 = b.Check(q2, qp2, deps_);
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v1->report.contained, contained_1);
  EXPECT_EQ(v2->report.contained, contained_2);
  EXPECT_TRUE(v1->store_hit);
  EXPECT_TRUE(v1->cache_hit);
  EXPECT_TRUE(v2->store_hit);
  // The whole point: the store bypassed the chase entirely.
  EXPECT_EQ(b.stats().chases_built, 0u);
  EXPECT_EQ(b.stats().store_hits, 2u);

  // A re-ask was promoted into the in-memory LRU: it hits there, not the
  // store.
  Result<EngineVerdict> again = b.Check(q, qp, deps_);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
  EXPECT_FALSE(again->store_hit);
  EXPECT_EQ(b.stats().store_hits, 2u);
}

TEST_F(StoreEngineTest, IsomorphicReAskHitsStoreAcrossRestart) {
  const std::string dir = NewStoreDir("engine_iso");
  const EngineConfig config = StoreConfig(dir);
  {
    ContainmentEngine a(&catalog_, &symbols_, config);
    ASSERT_TRUE(a.Check(Parse("ans(u) :- R(u, v)"),
                        Parse("ans(u) :- R(u, v), S(v, w)"), deps_)
                    .ok());
  }
  // Renamed variables + permuted conjuncts: same canonical key, so the
  // durable entry answers it.
  ContainmentEngine b(&catalog_, &symbols_, config);
  Result<EngineVerdict> v = b.Check(
      Parse("ans(e) :- R(e, f)"), Parse("ans(e) :- S(f, g), R(e, f)"), deps_);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->store_hit);
  EXPECT_EQ(b.stats().chases_built, 0u);
}

TEST_F(StoreEngineTest, CertificateRequestBypassesStoreAndStillProves) {
  const std::string dir = NewStoreDir("engine_cert");
  const EngineConfig config = StoreConfig(dir);
  ConjunctiveQuery q = Parse("ans(u) :- R(u, v)");
  ConjunctiveQuery qp = Parse("ans(u) :- R(u, v), S(v, w)");
  {
    ContainmentEngine a(&catalog_, &symbols_, config);
    ASSERT_TRUE(a.Check(q, qp, deps_).ok());
  }
  ContainmentEngine b(&catalog_, &symbols_, config);
  // A stored verdict has no derivation to extract a proof from, so a
  // certificate request must chase even on a warm store — and must still
  // succeed.
  Result<EngineOutcome> cert = DecideCertified(b, q, qp, deps_);
  ASSERT_TRUE(cert.ok()) << cert.status();
  ASSERT_TRUE(cert->certificate.has_value());
  EXPECT_GT(b.stats().chases_built, 0u);
  EXPECT_EQ(b.stats().store_hits, 0u);
}

TEST_F(StoreEngineTest, EngineRebuildsQuarantinedStore) {
  const std::string dir = NewStoreDir("engine_quarantine");
  const EngineConfig config = StoreConfig(dir);
  {
    ContainmentEngine a(&catalog_, &symbols_, config);
    ASSERT_TRUE(a.Check(Parse("ans(u) :- R(u, v)"),
                        Parse("ans(u) :- R(u, v), S(v, w)"), deps_)
                    .ok());
  }
  // Rot the snapshot. The next engine must detect, quarantine, and serve
  // cold — wrong answers are not an option for a cache.
  const std::string snapshot = StrCat(dir, "/snapshot.cqvs");
  std::string bytes = ReadAll(snapshot);
  bytes[bytes.size() - 1] ^= 0xFF;
  WriteAll(snapshot, bytes);

  ContainmentEngine b(&catalog_, &symbols_, config);
  ASSERT_NE(b.store(), nullptr);
  EXPECT_EQ(b.store()->stats().quarantined_files, 1u);
  EXPECT_EQ(b.store()->size(), 0u);
  Result<EngineVerdict> v = b.Check(Parse("ans(u) :- R(u, v)"),
                                    Parse("ans(u) :- R(u, v), S(v, w)"), deps_);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->report.contained);
  EXPECT_FALSE(v->store_hit);           // recomputed, not trusted
  EXPECT_GT(b.stats().chases_built, 0u);
}

}  // namespace
}  // namespace cqchase
