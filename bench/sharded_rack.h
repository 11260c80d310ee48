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

  int64_t TotalEventsFired() const {
    int64_t total = 0;
    for (int s = 0; s < sharded_.num_shards(); ++s) {
      total += sharded_.sim(s)->event_queue().stats().fired;
    }
    return total;
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
// the assembly below uses (bulk jobs peer cluster-locally when
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

// The RunPonyRpcRack workload on a ShardedRack. Keep the assembly in
// lockstep with rpc_rack.h: same engine/job/prober layout, same seeds,
// so the delivered work is comparable serial-vs-sharded.
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
  double per_job_rate =
      config.offered_gbps_per_host * 1e9 /
      (8.0 * static_cast<double>(config.response_bytes) *
       config.jobs_per_host);

  struct Job {
    PonyEngine* engine;
    std::unique_ptr<PonyClient> client_side;
    std::unique_ptr<PonyClient> server_side;
    std::unique_ptr<PonyRpcClientTask> client_task;
    std::unique_ptr<PonyRpcServerTask> server_task;
  };
  std::vector<std::vector<Job>> jobs(config.hosts);
  std::vector<PonyAddress> all_addresses;

  for (int h = 0; h < config.hosts; ++h) {
    for (int j = 0; j < config.jobs_per_host; ++j) {
      Job job;
      job.engine = rack.host(h)->CreatePonyEngine(
          "job" + std::to_string(h) + "_" + std::to_string(j));
      job.client_side = rack.host(h)->CreateClient(job.engine, "cli");
      job.server_side = rack.host(h)->CreateClient(job.engine, "srv");
      job.engine->SetDefaultSink(job.server_side.get());
      all_addresses.push_back(job.engine->address());
      jobs[h].push_back(std::move(job));
    }
  }
  std::vector<std::unique_ptr<PonyClient>> prober_clients;
  std::vector<std::unique_ptr<PonyRpcClientTask>> probers;
  for (int h = 0; h < config.hosts; ++h) {
    PonyEngine* pe = rack.host(h)->CreatePonyEngine(
        "prober" + std::to_string(h));
    prober_clients.push_back(rack.host(h)->CreateClient(pe, "prober"));
    PonyRpcClientTask::Options po;
    po.rpcs_per_sec = config.prober_qps;
    po.request_bytes = 64;
    po.response_bytes = 64;
    po.spin = config.prober_spins;
    po.rng_seed = config.seed + 1000 + h;
    for (const PonyAddress& addr : all_addresses) {
      if (addr.host != h) {
        po.peers.push_back(addr);
      }
    }
    probers.push_back(std::make_unique<PonyRpcClientTask>(
        "prober" + std::to_string(h), rack.host(h)->cpu(),
        prober_clients.back().get(), po));
  }
  for (int h = 0; h < config.hosts; ++h) {
    for (int j = 0; j < config.jobs_per_host; ++j) {
      Job& job = jobs[h][j];
      job.server_task = std::make_unique<PonyRpcServerTask>(
          "rpc_srv", rack.host(h)->cpu(), job.server_side.get());
      job.server_task->Start();
      PonyRpcClientTask::Options co;
      co.rpcs_per_sec = per_job_rate;
      co.request_bytes = 64;
      co.response_bytes = config.response_bytes;
      co.rng_seed = config.seed + h * 100 + j;
      for (const PonyAddress& addr : all_addresses) {
        if (addr == job.engine->address()) {
          continue;
        }
        if (config.cluster_hosts > 0 &&
            addr.host / config.cluster_hosts != h / config.cluster_hosts) {
          continue;  // bulk traffic stays cluster-local (as in rpc_rack.h)
        }
        co.peers.push_back(addr);
      }
      job.client_task = std::make_unique<PonyRpcClientTask>(
          "rpc_cli", rack.host(h)->cpu(), job.client_side.get(), co);
      job.client_task->Start();
    }
  }
  for (auto& p : probers) {
    p->Start();
  }

  rack.sharded().RunFor(warmup);
  for (auto& per_host : jobs) {
    for (auto& job : per_host) {
      job.client_task->ResetStats();
    }
  }
  for (auto& p : probers) {
    p->ResetStats();
  }
  // Per-host CPU totals, windowed like CpuSnapshot but over the sharded
  // rack's hosts.
  auto cpu_total = [&rack] {
    int64_t total = 0;
    for (int i = 0; i < rack.size(); ++i) {
      SimHost* h = rack.host(i);
      total += h->SnapCpuNs() + h->KernelCpuNs() + h->AppCpuNs();
    }
    return total;
  };
  int64_t cpu0 = cpu_total();
  const ShardedSim::Progress progress0 = rack.sharded().progress();
  rack.sharded().RunFor(window);
  int64_t cpu1 = cpu_total();

  ShardedRackResult result;
  result.rack.cpu_per_machine = static_cast<double>(cpu1 - cpu0) /
                                static_cast<double>(window) / config.hosts;
  int64_t bytes = 0;
  for (auto& per_host : jobs) {
    for (auto& job : per_host) {
      bytes += job.client_task->bytes_transferred();
      result.rack.background_rpcs += job.client_task->rpcs_completed();
    }
  }
  result.rack.gbps_per_machine = static_cast<double>(bytes) * 2.0 * 8.0 /
                                 ToSec(window) / 1e9 / config.hosts;
  for (auto& p : probers) {
    result.rack.prober_latency.Merge(p->latency());
  }
  result.rack.sim_events = rack.TotalEventsFired();
  result.rack.fabric_packets = rack.group().AggregateStats().delivered;
  result.rack.sim_end_time = rack.sharded().now();

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
