// Tests of the benchmark's own arithmetic: percentiles, the open-loop
// schedule, span self times and failure accounting.
//   .bench_build/snapbench/snapbench_test   (or: python3 snapbench/run.py --self-test)
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "snapbench/src/measure.h"
#include "snapbench/src/ops.h"

namespace snapbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {
    v.push_back(i);
  }
  return v;
}

void TestTailPercentile() {
  std::vector<double> v = Range(1000);
  Percentile p = TailPercentile(v, 99);
  EXPECT(p.value == 990 && p.percentile == 99 && p.samples == 1000);
  v = Range(100);
  EXPECT(TailPercentile(v, 50).value == 50);
  // 500 samples: the p99 would have 5 beyond it, so the highest percentile
  // with 10 beyond (the 490th of 500, p98) is reported instead.
  v = Range(500);
  p = TailPercentile(v, 99);
  EXPECT(p.value == 490 && p.percentile == 98);
  int beyond = 0;
  for (double x : v) {
    beyond += x > p.value ? 1 : 0;
  }
  EXPECT(beyond == kMinTail);
  // Too few samples for any supported tail: the maximum, at p100.
  v = Range(10);
  p = TailPercentile(v, 99);
  EXPECT(p.value == 10 && p.percentile == 100);
  // The median is never moved: it is the median of however many samples.
  v = Range(5);
  EXPECT(TailPercentile(v, 50).value == 3);
  v.clear();
  EXPECT(TailPercentile(v, 50).samples == 0);
}

void TestPoissonSchedule() {
  const std::vector<double> rates = {10000, 10000, 100};
  const int64_t second = 1'000'000'000;
  auto a = PoissonSchedule(42, rates, second);
  auto b = PoissonSchedule(42, rates, second);
  auto c = PoissonSchedule(43, rates, second);
  EXPECT(a.size() == b.size());
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due_ns == b[i].due_ns && a[i].cls == b[i].cls;
  }
  EXPECT(same);
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].due_ns != c[i].due_ns;
  }
  EXPECT(differs);
  int counts[3] = {0, 0, 0};
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT(a[i].due_ns >= 0 && a[i].due_ns < second);
    if (i > 0) {
      EXPECT(a[i].due_ns >= a[i - 1].due_ns);
    }
    counts[a[i].cls]++;
  }
  EXPECT(std::abs(counts[0] - 10000) < 400);
  EXPECT(std::abs(counts[1] - 10000) < 400);
  EXPECT(counts[2] > 60 && counts[2] < 140);
}

void TestSelfTimes() {
  // op [0,100]: children [10,30] and [20,50] overlap, [90,120] sticks out.
  // request [10,30] has a child [15,20].
  std::vector<Span> spans = {
      {"op", -1, 0, 100},      {"request", 0, 10, 30},
      {"server", 0, 20, 50},   {"late", 0, 90, 120},
      {"submit", 1, 15, 20},
  };
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT(self[0] == 100 - 40 - 10);
  EXPECT(self[1] == 20 - 5);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 5);
  // Children that partition their parent leave it no self time, and the
  // children's self times sum to the parent's duration.
  std::vector<Span> chain = {{"op", -1, 0, 60}, {"a", 0, 0, 25},
                             {"b", 0, 25, 25}, {"c", 0, 25, 60}};
  self = SelfTimes(chain);
  EXPECT(self[0] == 0 && self[1] + self[2] + self[3] == 60);
}

void TestFailuresCount() {
  std::vector<OpRec> ops(100);
  for (int i = 0; i < 100; ++i) {
    OpRec& r = ops[i];
    r.window = true;
    r.finished = true;
    r.ok = true;
    r.cls = kProbe;
    r.due = r.sub0 = i * 1000;
    r.sub1 = r.sub0 + 100;
    r.done = r.sub0 + 10'000;  // 10 us
  }
  // A refused submit: finished at once, not ok.
  ops[3].ok = false;
  ops[3].done = ops[3].sub1;
  // A timeout: given up on after 2 s.
  ops[7].ok = false;
  ops[7].done = ops[7].sub0 + 2'000'000'000;
  // Warm-up ops do not count.
  ops[9].window = false;
  ops[9].ok = false;
  Latencies l = Summarize(ops, /*open_loop=*/true, /*miss_ns=*/1'000'000'000,
                          INT64_MIN, INT64_MAX);
  EXPECT(l.account.attempted == 99);
  EXPECT(l.account.failed == 2);
  EXPECT(std::abs(l.account.fail_frac() - 2.0 / 99) < 1e-12);
  EXPECT(l.ok_ops == 97);
  EXPECT(l.rtt_us.size() == 99);
  // Both failures miss every limit below the timeout, the refusal too.
  int misses = 0;
  for (double x : l.rtt_us) {
    misses += x >= 1e6 ? 1 : 0;
  }
  EXPECT(misses == 2);
  EXPECT(l.payload_bytes == 97 * 2 * kSmallBytes);
  // A slice [10 us, 20 us) of start times holds ops 10..19.
  Latencies slice = Summarize(ops, true, 1'000'000'000, 10'000, 20'000);
  EXPECT(slice.account.attempted == 10 && slice.account.failed == 0);
}

}  // namespace
}  // namespace snapbench

int main() {
  snapbench::TestTailPercentile();
  snapbench::TestPoissonSchedule();
  snapbench::TestSelfTimes();
  snapbench::TestFailuresCount();
  if (snapbench::failures > 0) {
    std::printf("%d failures\n", snapbench::failures);
    return 1;
  }
  std::printf("snapbench_test: all passed\n");
  return 0;
}
