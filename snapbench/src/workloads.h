// The benchmark's workloads. Each runs for `seconds` of measurement, checks
// its outputs, and fills `report` (end-to-end metrics always, per-layer
// metrics when `trace` is set).
#ifndef SNAPBENCH_SRC_WORKLOADS_H_
#define SNAPBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "snapbench/src/report.h"

namespace snapbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Where traced runs write their Chrome-trace span file ("" = nowhere).
  std::string trace_dir;
};

// pingpong_udp and mixed_open_udp.
void RunLive(const RunArgs& args, Report* report);
// sim_rack.
void RunSim(const RunArgs& args, Report* report);

}  // namespace snapbench

#endif  // SNAPBENCH_SRC_WORKLOADS_H_
