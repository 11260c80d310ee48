#include "snapbench/src/measure.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/util/rng.h"

namespace snapbench {

Percentile TailPercentile(std::vector<double>& samples, double p) {
  Percentile out;
  const int64_t n = static_cast<int64_t>(samples.size());
  out.samples = n;
  if (n == 0) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  int64_t k = static_cast<int64_t>(
                  std::ceil(p / 100.0 * static_cast<double>(n))) -
              1;
  k = std::clamp<int64_t>(k, 0, n - 1);
  if (p > 50 && n - 1 - k < kMinTail) {
    k = n - 1 - kMinTail;
    if (k < 0) {
      k = n - 1;
    }
  }
  out.value = samples[static_cast<size_t>(k)];
  out.percentile = 100.0 * static_cast<double>(k + 1) /
                   static_cast<double>(n);
  return out;
}

std::vector<Arrival> PoissonSchedule(uint64_t seed,
                                     const std::vector<double>& rates_per_s,
                                     int64_t duration_ns) {
  std::vector<Arrival> out;
  for (size_t c = 0; c < rates_per_s.size(); ++c) {
    if (rates_per_s[c] <= 0) {
      continue;
    }
    // One independent stream per class, so adding a class never shifts
    // the arrivals of another.
    snap::Rng rng(seed * 0x9e3779b97f4a7c15ULL + c + 1);
    const double mean_ns = 1e9 / rates_per_s[c];
    double t = 0;
    while (true) {
      // Uniform in (0, 1]: 53 random bits, never zero.
      double u = (static_cast<double>(rng.NextU64() >> 11) + 1.0) /
                 9007199254740992.0;
      t += -std::log(u) * mean_ns;
      if (t >= static_cast<double>(duration_ns)) {
        break;
      }
      out.push_back(Arrival{static_cast<int64_t>(t), static_cast<int>(c)});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.due_ns < b.due_ns;
                   });
  return out;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, s.end);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

void FillPayload(uint64_t seed, uint64_t seq, uint8_t* out, size_t len) {
  snap::Rng rng(seed ^ (seq * 0xd1b54a32d192ed03ULL));
  for (size_t i = 0; i < len; i += 8) {
    uint64_t v = rng.NextU64();
    std::memcpy(out + i, &v, std::min<size_t>(8, len - i));
  }
  std::memcpy(out, &seq, std::min<size_t>(8, len));
}

std::vector<uint8_t> PatternBytes(uint64_t seed, size_t len) {
  std::vector<uint8_t> out(len);
  snap::Rng rng(seed + 0x5eed);
  for (size_t i = 0; i < len; i += 8) {
    uint64_t v = rng.NextU64();
    std::memcpy(out.data() + i, &v, std::min<size_t>(8, len - i));
  }
  return out;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int64_t KernelUdpDrops(const std::vector<uint16_t>& ports) {
  std::ifstream in("/proc/net/udp");
  if (!in) {
    return -1;
  }
  std::string line;
  std::getline(in, line);  // header
  int64_t total = 0;
  while (std::getline(in, line)) {
    // sl local_address rem_address st tx:rx tr:when retrnsmt uid timeout
    // inode ref pointer drops
    std::istringstream fields(line);
    std::vector<std::string> f;
    std::string tok;
    while (fields >> tok) {
      f.push_back(tok);
    }
    if (f.size() < 13) {
      continue;
    }
    size_t colon = f[1].find(':');
    if (colon == std::string::npos) {
      continue;
    }
    unsigned long port = std::stoul(f[1].substr(colon + 1), nullptr, 16);
    if (std::find(ports.begin(), ports.end(), port) != ports.end()) {
      total += std::stoll(f[12]);
    }
  }
  return total;
}

}  // namespace snapbench
