// verdict_storectl: read-only inspection of a VerdictStore directory.
//
//   verdict_storectl dump    --dir /var/cq/verdicts [--limit N]
//   verdict_storectl verify  --dir /var/cq/verdicts
//   verdict_storectl lineage --dir /var/cq/verdicts
//
//   dump     every resident entry (snapshot ∪ log, log wins), one line each
//   verify   walk both files and report every integrity guard the store's
//            own Open() would apply — header magic/version/fingerprint,
//            payload checksum, per-entry decode, torn log tail — without
//            quarantining, truncating, or compacting anything
//   lineage  Σ-lineage summary: entries by confidence and lineage_known,
//            per-Σ-fingerprint population, used-dependency set sizes
//
// The tool is strictly read-only: it parses snapshot.cqvs and log.cqvl with
// the same decoders the store uses (engine/serialize.h) but never writes a
// byte — no quarantine renames, no torn-tail truncation. It respects the
// store's single-owner flock: if a live VerdictStore holds <dir>/LOCK the
// tool refuses to read (the owner may be mid-append), and while the tool
// itself reads it holds the lock so no store can open the directory under
// it. Exit codes: 0 ok, 1 cannot read (locked, missing dir), 2 integrity
// problems found (verify).
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/string_util.h"
#include "engine/serialize.h"

namespace {

using cqchase::Status;
using cqchase::StoredVerdict;
using cqchase::StrCat;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <dump|verify|lineage> --dir DIR [--limit N]\n"
               "  dump     print every entry (one line each)\n"
               "  verify   check file headers, checksums, and entry decoding\n"
               "  lineage  summarize Sigma-lineage metadata\n"
               "  --dir    verdict store directory (required)\n"
               "  --limit  dump at most N entries (0 = all)\n",
               argv0);
  return 1;
}

// Takes the store's single-owner flock non-blocking. Returns the held fd
// (>= 0), -1 when a live owner holds it, -2 when the lock file does not
// exist (no store ever owned the directory — nothing to exclude against).
int AcquireLock(const std::string& dir) {
  const std::string lock_path = dir + "/LOCK";
  // No O_CREAT: a read-only tool must not add files to the directory.
  const int fd = ::open(lock_path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return errno == ENOENT ? -2 : -1;
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool ReadFile(const std::string& path, std::string* out, bool* missing) {
  *missing = false;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *missing = errno == ENOENT;
    return false;
  }
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  return !read_error;
}

// One parsed store file plus everything verify wants to say about it.
struct FileReport {
  bool present = false;
  bool header_ok = false;    // magic + current version + matching fingerprint
  bool payload_ok = false;   // checksum (snapshot) / all frames whole (log)
  uint32_t version = 0;
  uint64_t entries_decoded = 0;
  uint64_t torn_tail_bytes = 0;  // log only
  std::vector<std::string> problems;
};

// Mirrors VerdictStore::LoadSnapshot's read path without its side effects.
FileReport ParseSnapshot(
    const std::string& path,
    std::vector<std::pair<std::string, StoredVerdict>>* out) {
  FileReport report;
  std::string bytes;
  bool missing = false;
  if (!ReadFile(path, &bytes, &missing)) {
    if (!missing) report.problems.push_back("unreadable");
    return report;
  }
  report.present = true;
  cqchase::wire::ByteReader reader(bytes);
  uint32_t magic = 0;
  uint64_t fingerprint = 0, count = 0, payload_size = 0, checksum = 0;
  if (!reader.ReadU32(&magic) || !reader.ReadU32(&report.version) ||
      !reader.ReadU64(&fingerprint) || !reader.ReadU64(&count) ||
      !reader.ReadU64(&payload_size) || !reader.ReadU64(&checksum)) {
    report.problems.push_back("truncated header");
    return report;
  }
  if (magic != cqchase::kSnapshotMagic) {
    report.problems.push_back("bad magic");
    return report;
  }
  if (report.version != cqchase::kStoreFormatVersion) {
    report.problems.push_back(StrCat("unsupported version ", report.version,
                                     " (this build reads only v",
                                     cqchase::kStoreFormatVersion, ")"));
    return report;
  }
  if (fingerprint != cqchase::StoreSchemaFingerprint()) {
    report.problems.push_back("schema fingerprint mismatch");
    return report;
  }
  if (payload_size != reader.remaining()) {
    report.problems.push_back("payload size disagrees with file size");
    return report;
  }
  report.header_ok = true;
  std::string_view payload;
  if (!reader.ReadBytes(payload_size, &payload) ||
      cqchase::wire::Fnv1a64(payload) != checksum) {
    report.problems.push_back("payload checksum mismatch");
    return report;
  }
  cqchase::wire::ByteReader entries(payload);
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    StoredVerdict verdict;
    Status decoded = cqchase::DecodeVerdictEntry(entries, &key, &verdict);
    if (!decoded.ok()) {
      report.problems.push_back(
          StrCat("entry ", i, " undecodable: ", decoded.message()));
      return report;
    }
    out->emplace_back(std::move(key), std::move(verdict));
    ++report.entries_decoded;
  }
  if (entries.remaining() != 0) {
    report.problems.push_back("payload bytes left after declared entry count");
    return report;
  }
  report.payload_ok = true;
  return report;
}

// Mirrors VerdictStore::ReplayLog's read path; a torn tail is reported, not
// truncated.
FileReport ParseLog(const std::string& path,
                    std::vector<std::pair<std::string, StoredVerdict>>* out) {
  FileReport report;
  std::string bytes;
  bool missing = false;
  if (!ReadFile(path, &bytes, &missing)) {
    if (!missing) report.problems.push_back("unreadable");
    return report;
  }
  report.present = true;
  cqchase::wire::ByteReader reader(bytes);
  std::string header;
  uint32_t magic = 0;
  uint64_t fingerprint = 0;
  if (!cqchase::wire::ReadFramed(reader, &header).ok()) {
    report.problems.push_back("unreadable header frame");
    return report;
  }
  cqchase::wire::ByteReader hr(header);
  if (!hr.ReadU32(&magic) || !hr.ReadU32(&report.version) ||
      !hr.ReadU64(&fingerprint) || magic != cqchase::kLogMagic) {
    report.problems.push_back("bad header frame");
    return report;
  }
  if (report.version != cqchase::kStoreFormatVersion) {
    report.problems.push_back(StrCat("unsupported version ", report.version,
                                     " (this build reads only v",
                                     cqchase::kStoreFormatVersion, ")"));
    return report;
  }
  if (fingerprint != cqchase::StoreSchemaFingerprint()) {
    report.problems.push_back("schema fingerprint mismatch");
    return report;
  }
  report.header_ok = true;
  size_t good_end = reader.position();
  while (reader.remaining() > 0) {
    std::string payload;
    std::string key;
    StoredVerdict verdict;
    if (!cqchase::wire::ReadFramed(reader, &payload).ok()) break;
    cqchase::wire::ByteReader entry(payload);
    if (!cqchase::DecodeVerdictEntry(entry, &key, &verdict).ok() ||
        entry.remaining() != 0) {
      break;
    }
    out->emplace_back(std::move(key), std::move(verdict));
    ++report.entries_decoded;
    good_end = reader.position();
  }
  report.torn_tail_bytes = bytes.size() - good_end;
  report.payload_ok = true;  // a torn tail is crash damage, not corruption
  return report;
}

// snapshot ∪ log with the log winning duplicates — the map Open() restores.
std::vector<std::pair<std::string, StoredVerdict>> MergedEntries(
    std::vector<std::pair<std::string, StoredVerdict>> snapshot,
    std::vector<std::pair<std::string, StoredVerdict>> log) {
  std::unordered_map<std::string, size_t> index;
  std::vector<std::pair<std::string, StoredVerdict>> merged;
  merged.reserve(snapshot.size() + log.size());
  for (auto& entry : snapshot) {
    index.emplace(entry.first, merged.size());
    merged.push_back(std::move(entry));
  }
  for (auto& entry : log) {
    auto [it, inserted] = index.emplace(entry.first, merged.size());
    if (inserted) {
      merged.push_back(std::move(entry));
    } else {
      merged[it->second].second = std::move(entry.second);
    }
  }
  return merged;
}

const char* ConfidenceName(uint8_t confidence) {
  switch (static_cast<cqchase::VerdictConfidence>(confidence)) {
    case cqchase::VerdictConfidence::kExact:
      return "exact";
    case cqchase::VerdictConfidence::kMonotoneBound:
      return "monotone-bound";
  }
  return "?";
}

int RunDump(const std::vector<std::pair<std::string, StoredVerdict>>& entries,
            uint64_t limit) {
  uint64_t printed = 0;
  for (const auto& [key, v] : entries) {
    if (limit > 0 && printed >= limit) {
      std::printf("... %zu more entries (raise --limit)\n",
                  entries.size() - printed);
      break;
    }
    std::printf(
        "%s contained=%d confidence=%s lineage=%s sigma_fp=%016llx "
        "used_deps=%zu levels=%u\n",
        key.c_str(), v.contained ? 1 : 0, ConfidenceName(v.confidence),
        v.lineage_known ? "known" : "unknown",
        static_cast<unsigned long long>(v.sigma_fp), v.used_fps.size(),
        unsigned{v.chase_levels});
    ++printed;
  }
  std::printf("total %zu entries\n", entries.size());
  return 0;
}

void PrintFileReport(const char* name, const FileReport& report) {
  if (!report.present) {
    std::printf("%s: absent\n", name);
    return;
  }
  std::printf("%s: version=%u header=%s entries=%llu", name, report.version,
              report.header_ok ? "ok" : "BAD",
              static_cast<unsigned long long>(report.entries_decoded));
  if (report.torn_tail_bytes > 0) {
    std::printf(" torn_tail_bytes=%llu",
                static_cast<unsigned long long>(report.torn_tail_bytes));
  }
  std::printf("\n");
  for (const std::string& problem : report.problems) {
    std::printf("%s: PROBLEM: %s\n", name, problem.c_str());
  }
}

int RunVerify(const FileReport& snapshot, const FileReport& log,
              size_t merged_entries) {
  PrintFileReport("snapshot.cqvs", snapshot);
  PrintFileReport("log.cqvl", log);
  std::printf("merged %zu entries\n", merged_entries);
  const bool corrupt = !snapshot.problems.empty() || !log.problems.empty();
  if (corrupt) {
    std::printf("verify: FAIL (the store would quarantine and rebuild)\n");
    return 2;
  }
  if (log.torn_tail_bytes > 0) {
    // Open() salvages up to the tear and truncates the rest — expected
    // crash damage, not corruption, so it does not fail the verify.
    std::printf("verify: OK (torn log tail; next open salvages and trims)\n");
    return 0;
  }
  std::printf("verify: OK\n");
  return 0;
}

int RunLineage(
    const std::vector<std::pair<std::string, StoredVerdict>>& entries) {
  uint64_t exact = 0, monotone = 0, known = 0, unknown = 0, contained = 0;
  uint64_t used_total = 0, used_max = 0;
  std::map<uint64_t, uint64_t> by_sigma;  // ordered for stable output
  for (const auto& [key, v] : entries) {
    (void)key;
    if (static_cast<cqchase::VerdictConfidence>(v.confidence) ==
        cqchase::VerdictConfidence::kMonotoneBound) {
      ++monotone;
    } else {
      ++exact;
    }
    if (v.lineage_known) {
      ++known;
      used_total += v.used_fps.size();
      if (v.used_fps.size() > used_max) used_max = v.used_fps.size();
    } else {
      ++unknown;
    }
    if (v.contained) ++contained;
    ++by_sigma[v.sigma_fp];
  }
  std::printf("entries=%zu contained=%llu\n", entries.size(),
              static_cast<unsigned long long>(contained));
  std::printf("confidence: exact=%llu monotone-bound=%llu\n",
              static_cast<unsigned long long>(exact),
              static_cast<unsigned long long>(monotone));
  std::printf("lineage: known=%llu unknown=%llu\n",
              static_cast<unsigned long long>(known),
              static_cast<unsigned long long>(unknown));
  if (known > 0) {
    std::printf("used-dependency sets: avg=%.1f max=%llu\n",
                static_cast<double>(used_total) / static_cast<double>(known),
                static_cast<unsigned long long>(used_max));
  }
  std::printf("sigma fingerprints: %zu distinct\n", by_sigma.size());
  for (const auto& [fp, n] : by_sigma) {
    std::printf("  sigma_fp=%016llx entries=%llu\n",
                static_cast<unsigned long long>(fp),
                static_cast<unsigned long long>(n));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string command = argv[1];
  if (command != "dump" && command != "verify" && command != "lineage") {
    return Usage(argv[0]);
  }
  std::string dir;
  uint64_t limit = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else if (arg == "--limit" && i + 1 < argc) {
      limit = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return Usage(argv[0]);
    }
  }
  if (dir.empty()) return Usage(argv[0]);

  struct stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    std::fprintf(stderr, "%s: not a directory\n", dir.c_str());
    return 1;
  }

  const int lock_fd = AcquireLock(dir);
  if (lock_fd == -1) {
    std::fprintf(stderr,
                 "%s: a live VerdictStore owns this directory (flock on "
                 "%s/LOCK); refusing to read a store mid-append\n",
                 dir.c_str(), dir.c_str());
    return 1;
  }

  std::vector<std::pair<std::string, StoredVerdict>> snapshot_entries;
  std::vector<std::pair<std::string, StoredVerdict>> log_entries;
  const FileReport snapshot =
      ParseSnapshot(dir + "/snapshot.cqvs", &snapshot_entries);
  const FileReport log = ParseLog(dir + "/log.cqvl", &log_entries);
  const auto merged =
      MergedEntries(std::move(snapshot_entries), std::move(log_entries));

  int rc = 0;
  if (command == "dump") {
    rc = RunDump(merged, limit);
  } else if (command == "verify") {
    rc = RunVerify(snapshot, log, merged.size());
  } else {
    rc = RunLineage(merged);
  }
  if (lock_fd >= 0) ::close(lock_fd);  // releases the flock
  return rc;
}
