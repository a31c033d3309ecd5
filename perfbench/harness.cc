#include "harness.h"

#include <sched.h>
#include <sys/mount.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

namespace perfbench {

double PercentileOfSorted(const std::vector<double>& sorted, double pct) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

size_t SamplesBeyond(size_t n, double pct) {
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(pct / 100.0 * n - 1e-9)), 1, n);
  return n - rank;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = PercentileOfSorted(samples, 50.0);
  s.hi_pct = 50.0;
  s.hi = s.median;
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (SamplesBeyond(s.n, pct) >= kMinSamplesBeyond) {
      s.hi_pct = pct;
      s.hi = PercentileOfSorted(samples, pct);
      break;
    }
  }
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int32_t SpanRecorder::Begin(const char* name) {
  Span span;
  span.name = name;
  span.request = request_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int32_t id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int32_t id) {
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool SpanRecorder::Dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# span\trequest\tparent\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%llu\t%d\t%s\t%lld\t%lld\n", i,
                 static_cast<unsigned long long>(s.request), s.parent, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<int32_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[spans[i].parent].push_back(i);
  }
  std::vector<int64_t> self(spans.size());
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    intervals.clear();
    for (int32_t c : children[i]) {
      const int64_t lo = std::max(s.start_ns, spans[c].start_ns);
      const int64_t hi = std::min(s.end_ns, spans[c].end_ns);
      if (lo < hi) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const Metrics& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics.ToJson() + "}";
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int chosen = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) chosen = cpu;
  }
  if (chosen < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(chosen, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return -1;
  return chosen;
}

int AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 0;
  return CPU_COUNT(&allowed);
}

std::string FilesystemType(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794C7630UL: return "overlay";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
  return buf;
}

double ProcessCpuSeconds() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string MountPrivateTmpfs(const std::string& dir) {
  if (unshare(CLONE_NEWNS) != 0) return std::string("unshare: ") + std::strerror(errno);
  // Private propagation: the mount below stays invisible outside this
  // process and disappears with it.
  if (mount("none", "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return std::string("make-private: ") + std::strerror(errno);
  }
  if (mount("tmpfs", dir.c_str(), "tmpfs", 0, "size=1g,mode=0700") != 0) {
    return std::string("mount: ") + std::strerror(errno);
  }
  return "";
}

bool MakeFreshDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (ec) return false;
  return std::filesystem::create_directories(dir, ec) && !ec;
}

uint64_t FileBytes(const std::vector<std::string>& paths) {
  uint64_t total = 0;
  for (const std::string& p : paths) {
    struct stat st;
    if (stat(p.c_str(), &st) == 0 && S_ISREG(st.st_mode)) total += st.st_size;
  }
  return total;
}

}  // namespace perfbench
