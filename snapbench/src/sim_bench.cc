// sim_rack: the deterministic Fig. 6(b) rack on the sharded simulator.
// 96 hosts in clusters of 6, one 1 MB all-to-all job per host at 20 Gbps
// offered (cluster-local), a 2000/s 64 B RPC prober per host (rack-wide),
// and a 2000/s 64 B one-sided Read prober per host, on spreading engines
// with batched fabric delivery and traffic-aware placement over 2 shards.
// No live layer is involved.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench/sharded_rack.h"
#include "snapbench/src/alloc_count.h"
#include "snapbench/src/measure.h"
#include "snapbench/src/workloads.h"
#include "src/live/live_executor.h"
#include "src/util/logging.h"

namespace snapbench {
namespace {

using snap::kUsec;
using snap::SimDuration;
using snap::SimTime;

constexpr int kHosts = 96;
constexpr int kClusterHosts = 6;
constexpr int kShards = 2;
// The shards run round-robin on the calling thread (bit-identical to the
// threaded run). On a shared 4-vCPU VM two shard threads bought ~5% while
// their barrier wake-ups doubled the run-to-run spread of every wall-clock
// number, past any usable bound.
constexpr int kThreads = 0;
// Probe rates: four times Fig. 6(b)'s 500/s, for enough latency samples
// per window; probes are a sliver of the rack's events.
constexpr double kProbeQps = 2000.0;
constexpr SimDuration kWarmup = 1000 * kUsec;
constexpr SimDuration kWindow = 5000 * kUsec;
// Set-up ends at the first completed op; the rack is advanced in steps of
// this much simulated time until one completes.
constexpr SimDuration kSetupStep = 10 * kUsec;

snap::RpcRackConfig RackConfig(uint64_t seed) {
  snap::RpcRackConfig c;
  c.hosts = kHosts;
  c.jobs_per_host = 1;
  c.offered_gbps_per_host = 20.0;
  c.prober_qps = kProbeQps;
  c.seed = seed;
  c.cluster_hosts = kClusterHosts;
  c.nic_params.hosts_per_cluster = kClusterHosts;
  c.nic_params.inter_cluster_extra_delay = 4 * kUsec;
  c.nic_params.batched_delivery = true;
  c.host_options.group.mode = snap::SchedulingMode::kSpreadingEngines;
  c.host_options.group.dedicated_cores = {0, 1};
  c.host_options.cpu.num_cores = 10;
  return c;
}

// Open-loop Poisson 64 B one-sided Reads against one peer region, one
// outstanding at most (an arrival while busy is skipped), recording exact
// latencies while `record` is set.
class OneSidedProbeTask : public snap::PonyAppTask {
 public:
  OneSidedProbeTask(snap::CpuScheduler* sched, snap::PonyClient* client,
                    snap::PonyAddress peer, uint64_t region, uint64_t seed)
      : PonyAppTask("onesided_probe", sched, client, false),
        peer_(peer), region_(region), rng_(seed) {}

  snap::StepResult Step(SimTime now, SimDuration budget_ns) override {
    snap::CpuCostSink cost;
    while (auto c = client_->PollCompletion(&cost)) {
      in_flight_ = false;
      if (c->status != snap::PonyOpStatus::kOk) {
        ++failed_;
      } else {
        ++completed_;
        if (record_) {
          latencies_.push_back(static_cast<double>(now - sent_at_));
        }
      }
    }
    if (now >= next_issue_) {
      if (!in_flight_ &&
          client_->Read(peer_, region_, 0, 64, &cost) != 0) {
        in_flight_ = true;
        sent_at_ = now;
      }
      double u = (static_cast<double>(rng_.NextU64() >> 11) + 1.0) /
                 9007199254740992.0;
      next_issue_ = now + static_cast<SimDuration>(-std::log(u) * 1e9 /
                                                   kProbeQps);
    }
    timer_.Cancel();
    timer_ = sched_->WakeAt(this, next_issue_, /*remote=*/false);
    snap::StepResult result;
    result.next = IdleOutcome(&cost);
    result.cpu_ns = cost.ns;
    return result;
  }

  bool record_ = false;
  std::vector<double> latencies_;
  int64_t completed_ = 0;
  int64_t failed_ = 0;

 private:
  snap::PonyAddress peer_;
  uint64_t region_;
  snap::Rng rng_;
  bool in_flight_ = false;
  SimTime sent_at_ = 0;
  SimTime next_issue_ = 0;
  snap::EventHandle timer_;
};

struct Trial {
  double setup_s = 0;
  double wall_s = 0;  // window only
  double cpu_s = 0;   // window only
  double sim_s = 0;
  int64_t events = 0;
  int64_t packets = 0;    // fabric deliveries over the whole run
  int64_t completed = 0;  // ops completed over the whole run
  int64_t window_ops = 0;
  int64_t failed = 0;
  double window_bytes = 0;
  int64_t epochs = 0;
  int64_t handoffs = 0, cross_shard = 0;
  int64_t allocs = 0;
  std::vector<double> probe_ns, bulk_ns, onesided_ns;
  snap::ShardedSim::Profile profile;
};

Trial RunTrial(uint64_t seed, int shards, int threads, bool profiled) {
  Trial t;
  const int64_t t0 = snap::MonotonicTimeNs();
  snap::RpcRackConfig config = RackConfig(seed);
  snap::Placement placement = snap::Placement::TrafficAware(
      snap::BuildRackTrafficMatrix(config), shards);
  snap::ShardedRack rack(config.seed, config.hosts, config.host_options,
                         shards, threads, snap::kDefaultEventQueueKind,
                         config.nic_params, &placement);
  if (profiled) {
    rack.sharded().EnableProfiling();
    rack.group().EnableProfiling();
  }
  const double per_job_rate =
      config.offered_gbps_per_host * 1e9 /
      (8.0 * static_cast<double>(config.response_bytes));

  struct Host {
    snap::PonyEngine* job_engine = nullptr;
    snap::PonyEngine* probe_engine = nullptr;
    std::unique_ptr<snap::PonyClient> cli, srv, prober, onesided, owner;
    uint64_t region = 0;
    std::unique_ptr<snap::PonyRpcServerTask> server;
    std::unique_ptr<snap::PonyRpcClientTask> job, probe;
    std::unique_ptr<OneSidedProbeTask> onesided_task;
    std::vector<double> job_ns, probe_ns;
    int64_t job_bytes = 0, probe_bytes = 0;
  };
  std::vector<Host> hosts(kHosts);
  std::vector<snap::PonyAddress> jobs;
  bool record = false;
  for (int h = 0; h < kHosts; ++h) {
    Host& host = hosts[h];
    snap::SimHost* sh = rack.host(h);
    host.job_engine = sh->CreatePonyEngine("job" + std::to_string(h));
    host.cli = sh->CreateClient(host.job_engine, "cli");
    host.srv = sh->CreateClient(host.job_engine, "srv");
    host.job_engine->SetDefaultSink(host.srv.get());
    jobs.push_back(host.job_engine->address());
    host.probe_engine = sh->CreatePonyEngine("probe" + std::to_string(h));
    host.prober = sh->CreateClient(host.probe_engine, "prober");
    host.onesided = sh->CreateClient(host.probe_engine, "onesided");
    host.owner = sh->CreateClient(host.probe_engine, "region");
    host.region = host.owner->RegisterRegion(4096, false);
  }
  for (int h = 0; h < kHosts; ++h) {
    Host& host = hosts[h];
    snap::SimHost* sh = rack.host(h);
    host.server = std::make_unique<snap::PonyRpcServerTask>(
        "rpc_srv", sh->cpu(), host.srv.get());
    host.server->Start();
    snap::PonyRpcClientTask::Options jo;
    jo.rpcs_per_sec = per_job_rate;
    jo.response_bytes = config.response_bytes;
    jo.rng_seed = seed + h * 100;
    for (const snap::PonyAddress& a : jobs) {
      if (a.host != h && a.host / kClusterHosts == h / kClusterHosts) {
        jo.peers.push_back(a);
      }
    }
    host.job = std::make_unique<snap::PonyRpcClientTask>(
        "rpc_cli", sh->cpu(), host.cli.get(), jo);
    snap::PonyRpcClientTask::Options po;
    po.rpcs_per_sec = config.prober_qps;
    po.response_bytes = 64;
    po.rng_seed = seed + 1000 + h;
    for (const snap::PonyAddress& a : jobs) {
      if (a.host != h) {
        po.peers.push_back(a);
      }
    }
    host.probe = std::make_unique<snap::PonyRpcClientTask>(
        "prober", sh->cpu(), host.prober.get(), po);
    // Exact latencies, per task: each host runs on one shard thread.
    Host* hp = &host;
    host.job->set_completion_listener(
        [hp, &record](SimTime, SimDuration lat, int64_t bytes) {
          if (record) {
            hp->job_ns.push_back(static_cast<double>(lat));
            hp->job_bytes += bytes + 64;
          }
        });
    host.probe->set_completion_listener(
        [hp, &record](SimTime, SimDuration lat, int64_t bytes) {
          if (record) {
            hp->probe_ns.push_back(static_cast<double>(lat));
            hp->probe_bytes += bytes + 64;
          }
        });
    // One-sided peer: the next host of the same cluster.
    int peer = h / kClusterHosts * kClusterHosts + (h + 1) % kClusterHosts;
    host.onesided_task = std::make_unique<OneSidedProbeTask>(
        sh->cpu(), host.onesided.get(), hosts[peer].probe_engine->address(),
        hosts[peer].region, seed * 7 + h);
    host.job->Start();
    host.probe->Start();
    host.onesided_task->Start();
  }
  auto completed = [&] {
    int64_t n = 0;
    for (const Host& host : hosts) {
      n += host.job->rpcs_completed() + host.probe->rpcs_completed() +
           host.onesided_task->completed_;
    }
    return n;
  };
  while (completed() == 0) {
    rack.sharded().RunFor(kSetupStep);
  }
  t.setup_s = static_cast<double>(snap::MonotonicTimeNs() - t0) / 1e9;
  rack.sharded().RunUntil(kWarmup);

  record = true;
  for (Host& host : hosts) {
    host.onesided_task->record_ = true;
  }
  const int64_t done0 = completed();
  const auto progress0 = rack.sharded().progress();
  const auto exchange0 = rack.group().exchange_stats();
  SetAllocCounting(profiled);
  const int64_t allocs0 = AllocCount();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t w0 = snap::MonotonicTimeNs();
  rack.sharded().RunFor(kWindow);
  t.wall_s = static_cast<double>(snap::MonotonicTimeNs() - w0) / 1e9;
  t.cpu_s = ProcessCpuSeconds() - cpu0;
  t.allocs = AllocCount() - allocs0;
  SetAllocCounting(false);
  record = false;

  t.sim_s = snap::ToSec(kWindow);
  const auto progress1 = rack.sharded().progress();
  const auto exchange1 = rack.group().exchange_stats();
  t.events = progress1.events_fired - progress0.events_fired;
  t.epochs = progress1.epochs - progress0.epochs;
  t.handoffs = exchange1.handoffs - exchange0.handoffs;
  t.cross_shard = exchange1.cross_shard - exchange0.cross_shard;
  t.packets = rack.group().AggregateStats().delivered;
  t.completed = completed();
  t.window_ops = t.completed - done0;
  for (Host& host : hosts) {
    t.failed += host.onesided_task->failed_;
    t.window_bytes += static_cast<double>(host.job_bytes + host.probe_bytes +
                                          64 * static_cast<int64_t>(
                                              host.onesided_task
                                                  ->latencies_.size()));
    t.bulk_ns.insert(t.bulk_ns.end(), host.job_ns.begin(),
                     host.job_ns.end());
    t.probe_ns.insert(t.probe_ns.end(), host.probe_ns.begin(),
                      host.probe_ns.end());
    t.onesided_ns.insert(t.onesided_ns.end(),
                         host.onesided_task->latencies_.begin(),
                         host.onesided_task->latencies_.end());
  }
  if (profiled) {
    t.profile = rack.sharded().profile();
  }
  return t;
}

double Median(std::vector<double> v) { return TailPercentile(v, 50).value; }

double Pct(std::vector<double> v, double p) {
  return TailPercentile(v, p).value;
}

// Trials for `seconds` of wall time (at least three).
std::vector<Trial> RunTrials(uint64_t seed, double seconds, bool profiled) {
  std::vector<Trial> trials;
  const int64_t end = snap::MonotonicTimeNs() +
                      static_cast<int64_t>(seconds * 1e9);
  while (trials.size() < 3 || snap::MonotonicTimeNs() < end) {
    trials.push_back(RunTrial(seed, kShards, kThreads, profiled));
  }
  return trials;
}

void CheckParity(const std::vector<Trial>& trials, const Trial& serial,
                 Report* report) {
  for (const Trial& t : trials) {
    if (t.completed != serial.completed || t.packets != serial.packets) {
      report->CheckFailed(
          "sharded run diverged from the serial run: ops " +
          std::to_string(t.completed) + " vs " +
          std::to_string(serial.completed) + ", packets " +
          std::to_string(t.packets) + " vs " +
          std::to_string(serial.packets));
      return;
    }
  }
}

}  // namespace

void RunSim(const RunArgs& args, Report* report) {
  const double plain_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Trial> trials = RunTrials(args.seed, plain_seconds, false);
  const Trial serial = RunTrial(args.seed, 1, 0, false);
  CheckParity(trials, serial, report);

  std::vector<double> setup, cpu, ratio;
  for (const Trial& t : trials) {
    setup.push_back(t.setup_s);
    cpu.push_back(t.cpu_s / t.wall_s);
    ratio.push_back(t.sim_s / t.wall_s);
  }
  // Simulated results are identical in every trial; take the first. The
  // rack's throughput is per simulated second: per wall second it swung
  // by more than any usable bound between runs minutes apart on a shared
  // VM, so the simulator's own speed is the per-layer sim.time_ratio.
  const Trial& first = trials.front();
  report->Set("rtt_p50_us", Pct(first.probe_ns, 50) / 1e3);
  report->Set("rtt_p99_us", Pct(first.probe_ns, 99) / 1e3);
  report->Set("onesided_p50_us", Pct(first.onesided_ns, 50) / 1e3);
  report->Set("onesided_p99_us", Pct(first.onesided_ns, 99) / 1e3);
  report->Set("bulk_p50_ms", Pct(first.bulk_ns, 50) / 1e6);
  report->Set("bulk_p99_ms", Pct(first.bulk_ns, 99) / 1e6);
  report->Set("rpc_per_s", static_cast<double>(first.window_ops) /
                              first.sim_s);
  report->Set("goodput_gbps", first.window_bytes * 8 / first.sim_s / 1e9);
  report->Set("cpu_cores", Median(cpu));
  report->Set("setup_s", Median(setup));
  report->Set("sim.time_ratio", Median(ratio));
  report->attempted = first.window_ops + first.failed;
  report->failed = first.failed;
  report->Note("trials: " + std::to_string(trials.size()) +
               ", window ops per trial " + std::to_string(first.window_ops) +
               ", probe/bulk/one-sided samples " +
               std::to_string(first.probe_ns.size()) + "/" +
               std::to_string(first.bulk_ns.size()) + "/" +
               std::to_string(first.onesided_ns.size()) +
               "; serial parity ops " + std::to_string(serial.completed) +
               " packets " + std::to_string(serial.packets));

  if (args.trace) {
    std::vector<Trial> prof = RunTrials(args.seed, args.seconds / 2, true);
    std::vector<double> eps, ratio_t, allocs, busy, barrier, exchange;
    for (const Trial& t : prof) {
      eps.push_back(static_cast<double>(t.events) / t.wall_s);
      ratio_t.push_back(t.sim_s / t.wall_s);
      allocs.push_back(static_cast<double>(t.allocs) /
                       static_cast<double>(t.events));
      int64_t b = 0, w = 0;
      for (const auto& s : t.profile.shards) {
        b += s.busy_ns;
        w += s.wait_ns;
      }
      busy.push_back(b + w > 0 ? static_cast<double>(b) / (b + w) : 0);
      barrier.push_back(b + w > 0 ? static_cast<double>(w) / (b + w) : 0);
      exchange.push_back(static_cast<double>(t.profile.exchange_wall_ns) /
                         (t.wall_s * 1e9));
    }
    CheckParity(prof, serial, report);
    const Trial& p = prof.front();
    report->Set("sim.events_per_s", Median(eps));
    report->Set("sim.allocs_per_event", Median(allocs));
    report->Set("sim.events_per_pkt",
                static_cast<double>(p.events) /
                    static_cast<double>(std::max<int64_t>(1, p.handoffs)));
    report->Set("sim.epochs_per_sim_ms",
                static_cast<double>(p.epochs) / (p.sim_s * 1e3));
    report->Set("net.shard.cross_shard_frac",
                static_cast<double>(p.cross_shard) /
                    static_cast<double>(std::max<int64_t>(1, p.handoffs)));
    report->Set("sim.shard.busy_frac", Median(busy));
    report->Set("sim.shard.barrier_frac", Median(barrier));
    report->Set("sim.shard.exchange_frac", Median(exchange));
    report->Set("pony.engine.pkts_per_op",
                static_cast<double>(p.handoffs) /
                    static_cast<double>(std::max<int64_t>(1, p.window_ops)));
    report->Set("trace.overhead_frac",
                Median(ratio) / Median(ratio_t) - 1);
  }
  report->Set("peak_rss_mb", PeakRssMb());
}

}  // namespace snapbench
