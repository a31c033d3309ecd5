// perfbench_selftest: checks of the benchmark harness itself — the
// percentile helper, self time on nested spans, and seeded input
// generation (same seed, same canonical keys in the same order; another
// seed, other keys). Exits non-zero on the first failed check.
//
//   python3 perfbench/run.py --selftest
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/canonical.h"
#include "harness.h"
#include "inputs.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void TestPercentiles() {
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  Summary s = Summarize(thousand);
  Expect(s.n == 1000 && s.median == 500 && s.hi_pct == 99 && s.hi == 990,
         "1000 samples: median 500, p99 = 990 with 10 samples beyond");
  Expect(SamplesBeyond(1000, 99) == 10, "exactly 10 samples lie beyond p99");

  thousand.pop_back();  // 999 samples: only 9 would lie beyond p99
  s = Summarize(thousand);
  Expect(s.n == 999 && s.hi_pct == 95 && s.hi == 950,
         "999 samples: p99 unsupported, p95 reported");

  std::vector<double> few = {5, 1, 4, 2, 3};
  s = Summarize(few);
  Expect(s.n == 5 && s.median == 3 && s.hi_pct == 50,
         "5 samples: only the median is supported");
  Expect(Summarize({}).n == 0, "no samples: empty summary");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even-count median averages the middle");
}

void TestSelfTime() {
  // root [0,100] has children a [10,40] and b [30,60] (overlapping: their
  // union covers 50) plus c [90,120], clipped to the root at 100; a has a
  // child d [15,20].
  std::vector<Span> spans(5);
  spans[0] = {"root", 1, -1, 0, 100};
  spans[1] = {"a", 1, 0, 10, 40};
  spans[2] = {"b", 1, 0, 30, 60};
  spans[3] = {"c", 1, 0, 90, 120};
  spans[4] = {"d", 1, 1, 15, 20};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  Expect(self[0] == 100 - 50 - 10, "root self time subtracts the union");
  Expect(self[1] == 25, "a self time subtracts its own child");
  Expect(self[2] == 30 && self[3] == 30 && self[4] == 5,
         "leaves keep their whole duration");

  SpanRecorder rec;
  rec.set_request(7);
  const int32_t outer = rec.Begin("outer");
  const int32_t inner = rec.Begin("inner");
  rec.End(inner);
  const int32_t sibling = rec.Begin("sibling");
  rec.End(sibling);
  rec.End(outer);
  const std::vector<Span>& got = rec.spans();
  Expect(got[inner].parent == outer && got[sibling].parent == outer &&
             got[outer].parent == -1 && got[inner].request == 7,
         "recorder nests by call order and tags the request");
}

std::vector<std::string> Keys(const std::vector<Task>& tasks) {
  std::vector<std::string> keys;
  for (const Task& t : tasks) {
    keys.push_back(cqchase::CanonicalTaskKey(*t.q, *t.q_prime, *t.deps,
                                             cqchase::ChaseVariant::kRequired));
  }
  return keys;
}

void TestDeterminism() {
  const auto chains = [](uint64_t seed) {
    ChainInputs in = MakeChainInputs(seed, 20);
    return Keys(in.tasks);
  };
  Expect(chains(3) == chains(3), "chains: same seed, same keys in order");
  Expect(chains(3) != chains(4), "chains: another seed changes the keys");

  const auto cold = [](uint64_t seed) {
    PoolInputs in = MakeColdMixedInputs(seed, 200, 16);
    std::vector<std::string> keys = Keys(in.tasks);
    for (std::string& k : Keys(in.warmup)) keys.push_back(k);
    return keys;
  };
  const std::vector<std::string> c1 = cold(3);
  Expect(c1 == cold(3), "cold_mixed: same seed, same keys in order");
  Expect(c1 != cold(4), "cold_mixed: another seed changes the keys");
  std::vector<std::string> sorted = c1;
  std::sort(sorted.begin(), sorted.end());
  Expect(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
         "cold_mixed: every task is a distinct canonical key");

  const auto fleet = [](uint64_t seed) {
    FleetInputs in = MakeFleetInputs(seed, 40, 20, 20);
    std::vector<std::string> keys = Keys(in.local);
    for (std::string& k : Keys(in.peer)) keys.push_back(k);
    for (std::string& k : Keys(in.fresh)) keys.push_back(k);
    return keys;
  };
  Expect(fleet(3) == fleet(3), "fleet_rw: same seed, same keys in order");
  Expect(fleet(3) != fleet(4), "fleet_rw: another seed changes the keys");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestSelfTime();
  perfbench::TestDeterminism();
  std::printf("%d failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
