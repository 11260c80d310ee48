// Sharded variant of the Fig. 6(b) RPC rack: the same all-to-all Pony
// workload assembled over a ShardedSim + ShardedFabricGroup, hosts placed
// on shards by a pluggable Placement (round-robin by default).
// bench_sim_speed's rack-scaling leg sweeps --shards over rack sizes to
// measure how the conservative-sync engine scales, and cross-checks that
// delivered work is identical no matter how many shards (or worker
// threads, or placements) execute it.
#ifndef BENCH_SHARDED_RACK_H_
#define BENCH_SHARDED_RACK_H_

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/rpc_rack.h"
#include "src/net/shard_net.h"
#include "src/sim/placement.h"
#include "src/sim/sharded_sim.h"

namespace snap {

// Exists only so snapbench compiles; goes in the next benchmark change.
struct SnapbenchCompatTag {};
inline constexpr SnapbenchCompatTag kDefaultEventQueueKind{};

// A rack of identical SimHosts spread across a sharded fabric. Host ids
// stay global (the group pads every other shard's host table), so the
// workload wiring is identical to the serial Rack's no matter where each
// host is placed; `placement` (nullptr = round-robin) only chooses which
// shard simulates which host — it may change epoch/exchange counts and
// wall time, never simulated results.
class ShardedRack {
 public:
  ShardedRack(uint64_t seed, int num_hosts, const SimHostOptions& options,
              int num_shards, int num_threads,
              const NicParams& nic_params = NicParams{},
              const Placement* placement = nullptr)
      : sharded_([&] {
          ShardedSim::Options o;
          o.num_shards = num_shards;
          o.seed = seed;
          o.lookahead = nic_params.propagation_delay;
          o.num_threads = num_threads;
          return o;
        }()),
        group_(&sharded_, nic_params) {
    if (placement != nullptr) {
      SNAP_CHECK_EQ(placement->num_hosts(), num_hosts);
      SNAP_CHECK_LE(placement->num_shards, num_shards);
    }
    for (int i = 0; i < num_hosts; ++i) {
      int shard = placement != nullptr ? placement->shard(i)
                                       : i % num_shards;
      hosts_.push_back(std::make_unique<SimHost>(
          sharded_.sim(shard), group_.fabric(shard), &directory_, options));
    }
  }
  ShardedRack(uint64_t seed, int num_hosts, const SimHostOptions& options,
              int num_shards, int num_threads, SnapbenchCompatTag,
              const NicParams& nic_params,
              const Placement* placement = nullptr)
      : ShardedRack(seed, num_hosts, options, num_shards, num_threads,
                    nic_params, placement) {}

  ShardedSim& sharded() { return sharded_; }
  ShardedFabricGroup& group() { return group_; }
  PonyDirectory& directory() { return directory_; }
  SimHost* host(int i) { return hosts_[i].get(); }
  int size() const { return static_cast<int>(hosts_.size()); }

  // The surface rack-generic workloads drive (bench/rpc_rack.h), as on
  // the serial Rack.
  void RunFor(SimDuration duration) { sharded_.RunFor(duration); }
  SimTime now() const { return sharded_.now(); }
  int64_t TotalEventsFired() const {
    int64_t total = 0;
    for (int s = 0; s < sharded_.num_shards(); ++s) {
      total += sharded_.sim(s)->event_queue().stats().fired;
    }
    return total;
  }
  int64_t TotalPacketsDelivered() const {
    return group_.AggregateStats().delivered;
  }

 private:
  ShardedSim sharded_;
  PonyDirectory directory_;
  ShardedFabricGroup group_;
  std::vector<std::unique_ptr<SimHost>> hosts_;
};

// Extra accounting the sharded leg reports on top of RpcRackResult.
struct ShardedRackResult {
  RpcRackResult rack;
  int64_t epochs = 0;
  int64_t events_fired = 0;
  int64_t critical_path_events = 0;
  int64_t exchange_handoffs = 0;
  int64_t exchange_local_direct = 0;
  int64_t exchange_cross_shard = 0;
  int64_t exchanges = 0;  // barrier exchanges that moved packets
  // events_fired / critical_path_events: the speedup an ideal machine
  // with one core per shard would see. Wall-clock numbers sit next to
  // this in the JSON; on a single-core runner they cannot show parallel
  // speedup, the critical-path ratio is the scaling signal.
  double speedup_critical_path() const {
    return critical_path_events > 0
               ? static_cast<double>(events_fired) /
                     static_cast<double>(critical_path_events)
               : 0;
  }
};

// Workload-declared traffic hint for shard placement: the rack's offered
// load as a host-to-host weight matrix, built from the same peer rules
// the assembly in rpc_rack.h uses (bulk jobs peer cluster-locally when
// cluster_hosts > 0, probers all-to-all), so
// Placement::TrafficAware(BuildRackTrafficMatrix(config), shards) packs
// each cluster's heavy mutual traffic onto one shard. Weights are
// per-pair offered bytes up to a common scale factor — only ratios
// matter to the partitioner.
inline TrafficMatrix BuildRackTrafficMatrix(const RpcRackConfig& config) {
  TrafficMatrix traffic(config.hosts);
  for (int a = 0; a < config.hosts; ++a) {
    for (int b = a + 1; b < config.hosts; ++b) {
      // Tiny prober RPCs: 64B request + 64B response, all-to-all.
      int64_t weight = 128;
      if (config.cluster_hosts <= 0 ||
          a / config.cluster_hosts == b / config.cluster_hosts) {
        // Bulk 1MB RPCs between every job pair on the two hosts.
        weight += static_cast<int64_t>(config.jobs_per_host) *
                  (config.response_bytes + 64);
      }
      traffic.Add(a, b, weight);
    }
  }
  return traffic;
}

// The RunPonyRpcRack workload on a ShardedRack: both run the one
// assembly in rpc_rack.h, so wiring and seeds are the serial rack's.
// `enable_profiling` arms the engine profiler (wall-clock busy/wait per
// shard + deterministic epoch counters) and barrier-driven series
// sampling; `profile_json`, when non-null, receives
// ShardedSim::ProfileJson() after the run (bench_sim_speed --profile).
// `merged_trace_json`, when non-null, arms per-shard tracing and
// receives the merged Chrome-trace JSON (shard-stride tid remap) — with
// profiling also on, the trace carries the prof/ counter tracks that
// tools/trace_report.py rolls up.
inline ShardedRackResult RunPonyRpcRackSharded(const RpcRackConfig& config,
                                               int num_shards,
                                               int num_threads,
                                               SimDuration warmup,
                                               SimDuration window,
                                               const Placement* placement =
                                                   nullptr,
                                               bool enable_profiling = false,
                                               std::string* profile_json =
                                                   nullptr,
                                               std::string* merged_trace_json =
                                                   nullptr) {
  ShardedRack rack(config.seed, config.hosts, config.host_options,
                   num_shards, num_threads, config.nic_params, placement);
  if (merged_trace_json != nullptr) {
    rack.sharded().EnableTracing();
  }
  if (enable_profiling) {
    rack.sharded().EnableProfiling();
    rack.sharded().EnableSeriesSampling(/*cadence=*/500 * kUsec);
    rack.group().EnableProfiling();
  }
  ShardedSim::Progress progress0;
  ShardedRackResult result;
  result.rack = RunPonyRpcWorkload(config, rack, warmup, window, [&] {
    progress0 = rack.sharded().progress();
  });

  const ShardedSim::Progress& progress = rack.sharded().progress();
  result.epochs = progress.epochs - progress0.epochs;
  result.events_fired = progress.events_fired - progress0.events_fired;
  result.critical_path_events =
      progress.critical_path_events - progress0.critical_path_events;
  const ShardedFabricGroup::ExchangeStats xs = rack.group().exchange_stats();
  result.exchange_handoffs = xs.handoffs;
  result.exchange_local_direct = xs.local_direct;
  result.exchange_cross_shard = xs.cross_shard;
  result.exchanges = xs.exchanges;
  if (profile_json != nullptr && enable_profiling) {
    *profile_json = rack.sharded().ProfileJson();
  }
  if (merged_trace_json != nullptr) {
    *merged_trace_json = rack.sharded().MergedTrace()->ToJson();
  }
  return result;
}

}  // namespace snap

#endif  // BENCH_SHARDED_RACK_H_
