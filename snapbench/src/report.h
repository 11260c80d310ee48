// The benchmark's metric catalogue and its one-line JSON result. The names
// and units here are the ones BENCHMARK.json declares; run.py checks the
// two agree on every run.
#ifndef SNAPBENCH_SRC_REPORT_H_
#define SNAPBENCH_SRC_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace snapbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  bool Has(const std::string& name) const {
    return values_.count(name) != 0;
  }
  double Get(const std::string& name) const;
  // A failed output check: clears `correct` and keeps the reason.
  void CheckFailed(const std::string& what);
  void Note(const std::string& line) { notes_.push_back(line); }

  int64_t attempted = 0;
  int64_t failed = 0;

  // Human-readable table of every metric set, then (last line) the JSON
  // result: end-to-end metrics when !traced, per-layer ones when traced.
  // A per-layer metric the workload has no such layer for reads 0.
  void Print(bool traced) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> problems_;
  std::vector<std::string> notes_;
};

}  // namespace snapbench

#endif  // SNAPBENCH_SRC_REPORT_H_
