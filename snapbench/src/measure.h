// Measurement helpers shared by the snapbench workloads: percentiles with
// a stated tail sample, the seeded open-loop schedule, span self times,
// failure accounting, deterministic payload patterns and process-level
// resource readings. Pure functions, unit-tested by measure_test.cc.
#ifndef SNAPBENCH_SRC_MEASURE_H_
#define SNAPBENCH_SRC_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace snapbench {

// Minimum number of samples that must lie beyond a reported percentile.
constexpr int64_t kMinTail = 10;

struct Percentile {
  double value = 0;       // sample at the reported percentile
  double percentile = 0;  // percentile actually reported (<= requested)
  int64_t samples = 0;
};

// Nearest-rank percentile `p` of `samples`. For a tail (p > 50) with fewer
// than kMinTail samples beyond the p-th, reports the highest percentile that still
// has kMinTail beyond it instead (and says which in `percentile`). With
// kMinTail or fewer samples no percentile qualifies; the maximum is
// reported at percentile 100. Sorts `samples` in place.
Percentile TailPercentile(std::vector<double>& samples, double p);

// One open-loop arrival: when it is due (ns from schedule start) and which
// traffic class it belongs to (index into the rate vector).
struct Arrival {
  int64_t due_ns = 0;
  int cls = 0;
};

// Merged Poisson arrivals of independent classes over [0, duration_ns),
// sorted by due time. A pure function of (seed, rates, duration).
std::vector<Arrival> PoissonSchedule(uint64_t seed,
                                     const std::vector<double>& rates_per_s,
                                     int64_t duration_ns);

// A traced interval. `parent` is the index of the enclosing span in the
// same vector, or -1 for a root.
struct Span {
  std::string name;
  int parent = -1;
  int64_t start = 0;
  int64_t end = 0;
};

// Self time of each span: its duration minus the part of it covered by the
// union of its children's intervals (clipped to the span).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Attempted/failed accounting for one run; a failure also records its
// latency sample (see Summarize in ops.h for the value it gets).
struct OpAccount {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Ok() { ++attempted; }
  void Fail(std::vector<double>* latencies, double miss_value) {
    ++attempted;
    ++failed;
    if (latencies != nullptr) {
      latencies->push_back(miss_value);
    }
  }
  double fail_frac() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0;
  }
};

// Deterministic op payload: bytes [0, 8) carry `seq`, the rest a pattern
// derived from (seed, seq).
void FillPayload(uint64_t seed, uint64_t seq, uint8_t* out, size_t len);
// Deterministic region/bulk pattern derived from `seed`.
std::vector<uint8_t> PatternBytes(uint64_t seed, size_t len);

// Process CPU seconds (user + system) so far.
double ProcessCpuSeconds();
// CPU seconds of the calling thread so far.
double ThreadCpuSeconds();
// Peak resident set size of the process, MiB.
double PeakRssMb();

// Kernel per-socket drop counters (the `drops` column of /proc/net/udp)
// summed over the UDP sockets bound to `ports` on IPv4. -1 when the table
// cannot be read.
int64_t KernelUdpDrops(const std::vector<uint16_t>& ports);

}  // namespace snapbench

#endif  // SNAPBENCH_SRC_MEASURE_H_
