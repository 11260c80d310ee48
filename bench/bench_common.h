// Shared scaffolding for the paper-reproduction benchmarks: rack assembly,
// measurement windows, and table printing. Each bench binary regenerates
// one table or figure from the paper's Section 5 and prints the paper's
// reported values alongside for comparison.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/pony_apps.h"
#include "src/apps/simhost.h"
#include "src/apps/tcp_apps.h"
#include "src/sim/antagonist.h"

namespace snap {

// A rack of identical SimHosts on one fabric.
class Rack {
 public:
  Rack(uint64_t seed, int num_hosts, const SimHostOptions& options,
       const NicParams& nic_params = NicParams{})
      : sim_(seed), fabric_(&sim_, nic_params) {
    for (int i = 0; i < num_hosts; ++i) {
      hosts_.push_back(std::make_unique<SimHost>(&sim_, &fabric_,
                                                 &directory_, options));
    }
  }

  Simulator& sim() { return sim_; }
  Fabric& fabric() { return fabric_; }
  PonyDirectory& directory() { return directory_; }
  SimHost* host(int i) { return hosts_[i].get(); }
  int size() const { return static_cast<int>(hosts_.size()); }

 private:
  Simulator sim_;
  PonyDirectory directory_;
  Fabric fabric_;
  std::vector<std::unique_ptr<SimHost>> hosts_;
};

// Snapshot of per-host CPU consumption, for windowed "CPU/sec" readings.
struct CpuSnapshot {
  std::vector<int64_t> totals;

  static CpuSnapshot Take(Rack& rack) {
    CpuSnapshot snap;
    for (int i = 0; i < rack.size(); ++i) {
      SimHost* h = rack.host(i);
      snap.totals.push_back(h->SnapCpuNs() + h->KernelCpuNs() +
                            h->AppCpuNs());
    }
    return snap;
  }

  // Mean cores consumed per host over the window ending at `after`.
  static double MeanCores(const CpuSnapshot& before,
                          const CpuSnapshot& after, SimDuration window) {
    double total = 0;
    for (size_t i = 0; i < before.totals.size(); ++i) {
      total += static_cast<double>(after.totals[i] - before.totals[i]);
    }
    return total / static_cast<double>(window) /
           static_cast<double>(before.totals.size());
  }
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRow(const std::string& label, double measured,
                     double paper, const std::string& unit) {
  std::printf("  %-42s measured %9.2f %-10s (paper: %g)\n", label.c_str(),
              measured, unit.c_str(), paper);
}

}  // namespace snap

#endif  // BENCH_BENCH_COMMON_H_
