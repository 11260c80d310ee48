// snapbench: the repository's outside-in benchmark.
//
//   snapbench --workload pingpong_udp|mixed_open_udp|sim_rack --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR]
//
// Prints a table of every metric it measured, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "snapbench/src/workloads.h"

int main(int argc, char** argv) {
  snapbench::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!have_workload || args.seconds <= 0 || argc % 2 != 1) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  snapbench::Report report;
  if (args.workload == "pingpong_udp" || args.workload == "mixed_open_udp") {
    snapbench::RunLive(args, &report);
  } else if (args.workload == "sim_rack") {
    snapbench::RunSim(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload %s, seed %llu, %.3g s, trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  report.Print(args.trace);
  return 0;
}
