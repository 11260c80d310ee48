// All-to-all RPC rack assembly for Figures 6(b)-(d) and 7: N machines,
// `jobs_per_host` background jobs per machine exchanging 1MB RPCs at a
// Poisson rate, plus one tiny-RPC latency prober per machine.
#ifndef BENCH_RPC_RACK_H_
#define BENCH_RPC_RACK_H_

#include <memory>
#include <vector>

#include "bench/bench_common.h"

namespace snap {

struct RpcRackConfig {
  int hosts = 8;
  int jobs_per_host = 4;
  double offered_gbps_per_host = 10.0;  // background 1MB RPC load
  int64_t response_bytes = 1 << 20;
  double prober_qps = 500.0;
  bool prober_spins = false;  // isolate app wakeup from transport wakeup
  // Background-job peer locality: > 0 restricts each job's 1MB-RPC peers
  // to jobs on hosts in its own cluster of `cluster_hosts` consecutive
  // hosts (probers stay all-to-all). Set alongside
  // nic_params.hosts_per_cluster to model a rack of racks whose bulk
  // traffic is cluster-local — the shape traffic-aware shard placement
  // (src/sim/placement.h) exploits.
  int cluster_hosts = 0;
  uint64_t seed = 7;
  SimHostOptions host_options;
  NicParams nic_params;
  // Optional flight recorder attached to the rack's simulator
  // (bench_sim_speed --trace). Tracing never changes results, only
  // wall-clock speed, so traced runs are excluded from measurements.
  TraceRecorder* tracer = nullptr;
};

struct RpcRackResult {
  double cpu_per_machine = 0;     // mean cores per machine over the window
  double gbps_per_machine = 0;    // bidirectional application bytes
  Histogram prober_latency;       // tiny-RPC latency across all probers
  int64_t background_rpcs = 0;
  // Simulator-side totals over the whole run (bench_sim_speed divides
  // these by wall time for events/sec and packets/sec).
  int64_t sim_events = 0;         // events fired by the event queue
  int64_t fabric_packets = 0;     // packets delivered by the fabric
  SimTime sim_end_time = 0;       // total simulated time covered
  // Telemetry dashboard text, captured only for traced runs.
  std::string telemetry_dashboard;
};

// Runs the rack over Pony Express engines.
inline RpcRackResult RunPonyRpcRack(const RpcRackConfig& config,
                                    SimDuration warmup, SimDuration window) {
  Rack rack(config.seed, config.hosts, config.host_options,
            config.nic_params);
  if (config.tracer != nullptr) {
    rack.sim().set_tracer(config.tracer);
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

  // Each job gets its own exclusive engine (Section 3.1); the engine's
  // default sink is the server-role channel (incoming requests), while
  // responses ride streams bound to the client-role channel.
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
  // Prober engines (tiny RPCs to random jobs).
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
  // Background tasks.
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
          continue;  // bulk traffic stays cluster-local
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

  rack.sim().RunFor(warmup);
  for (auto& per_host : jobs) {
    for (auto& job : per_host) {
      job.client_task->ResetStats();
    }
  }
  for (auto& p : probers) {
    p->ResetStats();
  }
  CpuSnapshot cpu0 = CpuSnapshot::Take(rack);
  rack.sim().RunFor(window);
  CpuSnapshot cpu1 = CpuSnapshot::Take(rack);

  RpcRackResult result;
  result.cpu_per_machine = CpuSnapshot::MeanCores(cpu0, cpu1, window);
  int64_t bytes = 0;
  for (auto& per_host : jobs) {
    for (auto& job : per_host) {
      bytes += job.client_task->bytes_transferred();
      result.background_rpcs += job.client_task->rpcs_completed();
    }
  }
  // Bidirectional per machine: requests counted at initiators, responses
  // at initiators; servers see the mirror image, so per-machine
  // bidirectional traffic is 2x the initiator view divided across hosts.
  result.gbps_per_machine = static_cast<double>(bytes) * 2.0 * 8.0 /
                            ToSec(window) / 1e9 / config.hosts;
  for (auto& p : probers) {
    result.prober_latency.Merge(p->latency());
  }
  result.sim_events = rack.sim().event_queue().stats().fired;
  result.fabric_packets = rack.fabric().stats().delivered;
  result.sim_end_time = rack.sim().now();
  if (config.tracer != nullptr) {
    rack.sim().event_queue().ExportStats(&rack.sim().telemetry(),
                                         "sim/event_queue");
    result.telemetry_dashboard = rack.sim().telemetry().DumpDashboard();
  }
  return result;
}

// Runs the rack over kernel TCP.
inline RpcRackResult RunTcpRpcRack(const RpcRackConfig& config,
                                   SimDuration warmup, SimDuration window) {
  Rack rack(config.seed, config.hosts, config.host_options,
            config.nic_params);
  double per_job_rate =
      config.offered_gbps_per_host * 1e9 /
      (8.0 * static_cast<double>(config.response_bytes) *
       config.jobs_per_host);
  auto ctx = std::make_unique<TcpRpcContext>();

  std::vector<std::unique_ptr<TcpRpcServerTask>> servers;
  std::vector<std::unique_ptr<TcpRpcClientTask>> clients;
  std::vector<std::unique_ptr<TcpRpcClientTask>> probers;
  std::vector<int> all_hosts;
  for (int h = 0; h < config.hosts; ++h) {
    all_hosts.push_back(h);
  }
  for (int h = 0; h < config.hosts; ++h) {
    servers.push_back(std::make_unique<TcpRpcServerTask>(
        "rpc_srv", rack.host(h)->cpu(), rack.host(h)->kstack(), 5003,
        ctx.get()));
    servers.back()->Start();
  }
  for (int h = 0; h < config.hosts; ++h) {
    for (int j = 0; j < config.jobs_per_host; ++j) {
      TcpRpcClientTask::Options co;
      co.rpcs_per_sec = per_job_rate;
      co.response_bytes = config.response_bytes;
      co.rng_seed = config.seed + h * 100 + j;
      for (int peer : all_hosts) {
        if (peer != h) {
          co.peer_hosts.push_back(peer);
        }
      }
      clients.push_back(std::make_unique<TcpRpcClientTask>(
          "rpc_cli", rack.host(h)->cpu(), rack.host(h)->kstack(),
          ctx.get(), co));
      clients.back()->Start();
    }
    // Prober uses tiny responses on its own connections. One outstanding
    // per connection keeps the side channel coherent; tiny responses need
    // a distinct server port with distinct response size, so the prober
    // uses its own context + server.
  }
  // Prober servers on a second port with a second context.
  auto prober_ctx = std::make_unique<TcpRpcContext>();
  std::vector<std::unique_ptr<TcpRpcServerTask>> prober_servers;
  for (int h = 0; h < config.hosts; ++h) {
    prober_servers.push_back(std::make_unique<TcpRpcServerTask>(
        "prb_srv", rack.host(h)->cpu(), rack.host(h)->kstack(), 5004,
        prober_ctx.get()));
    prober_servers.back()->Start();
  }
  for (int h = 0; h < config.hosts; ++h) {
    TcpRpcClientTask::Options po;
    po.port = 5004;
    po.rpcs_per_sec = config.prober_qps;
    po.response_bytes = 64;
    po.rng_seed = config.seed + 2000 + h;
    for (int peer : all_hosts) {
      if (peer != h) {
        po.peer_hosts.push_back(peer);
      }
    }
    probers.push_back(std::make_unique<TcpRpcClientTask>(
        "prober", rack.host(h)->cpu(), rack.host(h)->kstack(),
        prober_ctx.get(), po));
    probers.back()->Start();
  }

  rack.sim().RunFor(warmup);
  for (auto& c : clients) {
    c->ResetStats();
  }
  for (auto& p : probers) {
    p->ResetStats();
  }
  CpuSnapshot cpu0 = CpuSnapshot::Take(rack);
  rack.sim().RunFor(window);
  CpuSnapshot cpu1 = CpuSnapshot::Take(rack);

  RpcRackResult result;
  result.cpu_per_machine = CpuSnapshot::MeanCores(cpu0, cpu1, window);
  int64_t bytes = 0;
  for (auto& c : clients) {
    bytes += c->bytes_transferred();
    result.background_rpcs += c->rpcs_completed();
  }
  result.gbps_per_machine = static_cast<double>(bytes) * 2.0 * 8.0 /
                            ToSec(window) / 1e9 / config.hosts;
  for (auto& p : probers) {
    result.prober_latency.Merge(p->latency());
  }
  result.sim_events = rack.sim().event_queue().stats().fired;
  result.fabric_packets = rack.fabric().stats().delivered;
  result.sim_end_time = rack.sim().now();
  return result;
}

}  // namespace snap

#endif  // BENCH_RPC_RACK_H_
