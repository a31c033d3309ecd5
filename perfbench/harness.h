// Measurement plumbing shared by perfbench_driver and its self-tests:
// clocks, the percentile helper, the in-memory span recorder with its
// self-time analysis, the result-line writer, and the run-environment
// probes (CPU pinning, filesystem type, process CPU and RSS).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- percentiles -------------------------------------------------------------

// A latency distribution as the benchmark reports it: the sample count, the
// median, and the highest percentile that still has at least
// kMinSamplesBeyond samples above it (99.9, 99, 95, 90, 75 or 50; with
// fewer than 2 * kMinSamplesBeyond samples, the median stands in).
inline constexpr size_t kMinSamplesBeyond = 10;

struct Summary {
  size_t n = 0;
  double median = 0.0;
  double hi_pct = 0.0;    // which percentile `hi` is
  double hi = 0.0;
};

// Nearest-rank percentile of sorted samples: the value at rank
// ceil(pct/100 * n). Requires a non-empty input.
double PercentileOfSorted(const std::vector<double>& sorted, double pct);

// Number of samples strictly beyond the nearest-rank `pct` percentile.
size_t SamplesBeyond(size_t n, double pct);

Summary Summarize(std::vector<double> samples);

// Median of the values (0 for none).
double Median(std::vector<double> values);

// --- spans -------------------------------------------------------------------

// One timed interval of the traced run. `name` points at a string literal;
// `parent` indexes the recorder's span list (-1 for a root).
struct Span {
  const char* name = "";
  uint64_t request = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// In-memory span list for one single-threaded traced client. Spans nest by
// call order: Begin makes the innermost open span the parent, End closes
// it. Every span carries the id of the request it belongs to. Nothing is
// written out until Dump, after the workload ends.
class SpanRecorder {
 public:
  void set_request(uint64_t request) { request_ = request; }

  int32_t Begin(const char* name);
  // Closes span `id`, which must be the innermost open span.
  void End(int32_t id);
  // Relabels a span, for outcomes known only after the call (hit or miss).
  void Rename(int32_t id, const char* name) { spans_[id].name = name; }

  const std::vector<Span>& spans() const { return spans_; }
  bool Dump(const std::string& path) const;

 private:
  uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span; a null recorder makes it a no-op, so untraced replays (keeping
// replica state in step during set-up) share the traced code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder ? recorder->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Rename(const char* name) {
    if (recorder_ != nullptr) recorder_->Rename(id_, name);
  }

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

// Per-span self time in ns: the span's duration minus the part of it that
// the union of its children's intervals covers.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// --- result line -------------------------------------------------------------

// Metrics in insertion order, printed as the benchmark's final JSON line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const Metrics& metrics);

// --- environment -------------------------------------------------------------

// Pins the calling thread (and so every thread it starts later) to the
// highest-numbered CPU of its allowed set. Returns that CPU, or -1 when the
// affinity calls fail.
int PinToOneCpu();
// CPUs in the process's allowed set.
int AllowedCpus();
// Filesystem type of `path` ("tmpfs", "ext4", "overlay", ... or a hex magic).
std::string FilesystemType(const std::string& path);
// Process CPU time (user + sys, all threads) in seconds.
double ProcessCpuSeconds();
// Peak resident set size of the process in MB.
double PeakRssMb();
// Mounts a fresh tmpfs on the existing directory `dir`, in a private mount
// namespace of this process, so the mount is invisible to every other
// process and vanishes when this one exits. Must run before the process
// starts any thread. Returns "" on success, else why it failed (typically
// no privilege to create the namespace).
std::string MountPrivateTmpfs(const std::string& dir);
// Recursively removes `dir` if present and creates it empty. False on error.
bool MakeFreshDir(const std::string& dir);
// Sum of the sizes of the regular files named (missing files count 0).
uint64_t FileBytes(const std::vector<std::string>& paths);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
