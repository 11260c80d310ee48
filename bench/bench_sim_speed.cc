// Wall-clock speed of the simulation hot path (the timer-wheel event
// queue plus everything it drives) on:
//   - a micro event-churn loop (pure queue cost),
//   - a schedule-then-cancel loop (the RTO-timer pattern),
//   - the Fig. 6(b) all-to-all RPC rack workload (the real thing).
// Reports events/sec, ns/event, allocs/event (via a counting operator
// new) and packets/sec. The comparison point is the pre-timer-wheel
// baseline recorded in BENCH_sim_speed.json.
//
// Usage:
//   bench_sim_speed [--smoke] [--json PATH] [--only CASE]
// --smoke shrinks every workload for CI (runs in ~seconds, labeled
// `bench` in ctest); --json writes machine-readable results for
// tools/bench_trajectory.py, which maintains BENCH_sim_speed.json;
// --only runs a single case (event_churn / cancel_churn / rack_fig6b /
// rack_scaling), mainly so a profiler sees one workload (incompatible
// with --json).
//
// The rack_scaling case sweeps rack sizes x shard counts on the sharded
// conservative-sync engine (bench/sharded_rack.h), reporting wall-clock
// events/sec alongside the deterministic critical-path speedup, with a
// parity check that delivered work is invariant across shard counts.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/rpc_rack.h"
#include "bench/sharded_rack.h"

// ---------------------------------------------------------------------------
// Allocation counting: every global new in this binary bumps a counter,
// so each measurement can report allocs/event. Every non-aligned form is
// replaced, nothrow included, so each allocation is released by the
// matching deallocation (the aligned forms keep the library's pair).
// ---------------------------------------------------------------------------
namespace {
std::atomic<int64_t> g_alloc_count{0};

void* CountedMalloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace snap {
namespace {

struct Measurement {
  double wall_sec = 0;
  int64_t events = 0;   // events fired
  int64_t allocs = 0;   // global operator new calls during the run
  int64_t packets = 0;  // fabric deliveries (rack only)
  double sim_sec = 0;   // simulated seconds covered (rack only)

  double events_per_sec() const {
    return wall_sec > 0 ? static_cast<double>(events) / wall_sec : 0;
  }
  double ns_per_event() const {
    return events > 0 ? wall_sec * 1e9 / static_cast<double>(events) : 0;
  }
  double allocs_per_event() const {
    return events > 0
               ? static_cast<double>(allocs) / static_cast<double>(events)
               : 0;
  }
  double packets_per_sec() const {
    return wall_sec > 0 ? static_cast<double>(packets) / wall_sec : 0;
  }
};

class Timed {
 public:
  Timed() : allocs0_(g_alloc_count.load(std::memory_order_relaxed)) {}
  void Finish(Measurement* m) const {
    m->wall_sec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
    m->allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs0_;
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  int64_t allocs0_;
};

// Pure queue throughput: a self-rescheduling event population, the shape
// of the simulation main loop (every pop schedules a successor).
Measurement MeasureEventChurn(int64_t total_events) {
  Simulator sim(1);
  const int kPopulation = 512;
  int64_t remaining = total_events;
  struct Ticker {
    Simulator* sim;
    int64_t* remaining;
    void Tick() {
      if (--*remaining <= 0) {
        return;
      }
      sim->Schedule(1 + (*remaining % 700), [t = *this]() mutable { t.Tick(); });
    }
  };
  Ticker ticker{&sim, &remaining};
  for (int i = 0; i < kPopulation; ++i) {
    sim.Schedule(1 + i, [t = ticker]() mutable { t.Tick(); });
  }
  Timed timed;
  sim.RunAll();
  Measurement m;
  timed.Finish(&m);
  m.events = sim.event_queue().stats().fired;
  return m;
}

// Schedule-then-cancel: most timers (RTO, interrupt moderation) never
// fire; the queue must absorb and reap them cheaply.
Measurement MeasureCancelChurn(int64_t total_events) {
  Simulator sim(1);
  Timed timed;
  for (int64_t i = 0; i < total_events; ++i) {
    EventHandle h = sim.Schedule(1000 * kUsec, [] {});
    h.Cancel();
    if ((i & 1023) == 0) {
      sim.RunFor(1);
    }
  }
  sim.RunAll();
  Measurement m;
  timed.Finish(&m);
  m.events = total_events;  // scheduled+cancelled pairs processed
  return m;
}

// The Fig. 6(b) rack: 6 hosts x 3 jobs of all-to-all 1MB RPCs plus
// latency probers, at 20 Gbps offered load per host. The headline case
// runs kRackTrials identical simulations and keeps the fastest: the
// simulation is deterministic, so the trials differ only by external
// machine noise (other tenants, thermal state), and best-of-N is the
// standard estimator for the code's actual speed under that noise. The
// recorded pre-PR baseline in BENCH_sim_speed.json is best-of-N the same
// way.
constexpr int kRackTrials = 3;

RpcRackConfig RackConfig() {
  RpcRackConfig config;
  config.hosts = 6;
  config.jobs_per_host = 3;
  config.offered_gbps_per_host = 20.0;
  config.host_options.group.mode = SchedulingMode::kSpreadingEngines;
  config.host_options.group.dedicated_cores = {0, 1};
  config.host_options.cpu.num_cores = 10;
  return config;
}

Measurement MeasureRack(SimDuration warmup, SimDuration window) {
  RpcRackConfig config = RackConfig();
  Measurement best;
  for (int trial = 0; trial < kRackTrials; ++trial) {
    Timed timed;
    RpcRackResult result = RunPonyRpcRack(config, warmup, window);
    Measurement m;
    timed.Finish(&m);
    m.events = result.sim_events;
    m.packets = result.fabric_packets;
    m.sim_sec = ToSec(result.sim_end_time);
    if (trial == 0 || m.wall_sec < best.wall_sec) {
      best = m;
    }
  }
  return best;
}

void PrintMeasurement(const char* name, const Measurement& m) {
  std::printf(
      "  %-18s %10.3fs wall  %9.2fM events  %8.2fM ev/s  %7.1f "
      "ns/ev  %6.3f allocs/ev",
      name, m.wall_sec, static_cast<double>(m.events) / 1e6,
      m.events_per_sec() / 1e6, m.ns_per_event(), m.allocs_per_event());
  if (m.packets > 0) {
    std::printf("  %8.2fM pkt/s", m.packets_per_sec() / 1e6);
  }
  std::printf("\n");
}

// Written under the key "timer_wheel" so the BENCH_sim_speed.json history
// (which also recorded a since-deleted heap leg) stays comparable.
void JsonMeasurement(FILE* f, const Measurement& m) {
  std::fprintf(f,
               "      \"timer_wheel\": {\"wall_sec\": %.6f, "
               "\"events\": %lld, \"events_per_sec\": %.1f, "
               "\"ns_per_event\": %.3f, \"allocs\": %lld, "
               "\"allocs_per_event\": %.4f, "
               "\"packets\": %lld, \"packets_per_sec\": %.1f, "
               "\"sim_sec\": %.6f}\n",
               m.wall_sec, static_cast<long long>(m.events),
               m.events_per_sec(), m.ns_per_event(),
               static_cast<long long>(m.allocs), m.allocs_per_event(),
               static_cast<long long>(m.packets), m.packets_per_sec(),
               m.sim_sec);
}

// ---------------------------------------------------------------------------
// Rack-scaling leg: the all-to-all RPC rack at increasing sizes, executed
// by the sharded conservative-sync engine at increasing shard counts.
//
// Two readings per point:
//   - wall-clock events/sec (honest, machine-dependent: on a single-core
//     runner the threaded shards time-slice one core and cannot beat
//     serial);
//   - speedup_critical_path = events_fired / critical_path_events, the
//     deterministic events/sec speedup an ideal one-core-per-shard machine
//     would see. It is a pure function of the simulation (epoch structure
//     is thread-count invariant), so it is stable across runners and is
//     what the scaling gate checks.
// Parity: delivered packets and completed RPCs must be identical across
// every shard count at every rack size (the conservative engine may not
// change simulated results, only how they are computed).
// ---------------------------------------------------------------------------
struct ScalingPoint {
  int hosts = 0;
  int shards = 0;
  int num_threads = 0;  // worker threads actually used (0 = caller thread)
  Measurement m;
  int64_t epochs = 0;
  int64_t critical_path_events = 0;
  int64_t handoffs = 0;
  int64_t local_direct = 0;
  int64_t cross_shard = 0;
  int64_t exchanges = 0;
  int64_t rpcs = 0;
  double speedup_cp = 0;
  double speedup_wall = 0;  // vs the 1-shard point of the same rack
};

// Scaling racks bigger than the Fig. 6(b) baseline are clustered: bulk
// RPC traffic stays inside clusters of `cluster_hosts` consecutive hosts
// (probers remain all-to-all) and crossing a cluster boundary costs extra
// propagation. This is the shape the tentpole optimizations exploit —
// traffic-aware placement packs whole clusters onto shards, and the
// per-pair lookahead matrix lets cluster-disjoint shard pairs run
// inter-cluster-latency-long epochs.
RpcRackConfig ScalingRackConfig(int hosts) {
  RpcRackConfig config = RackConfig();
  config.hosts = hosts;
  // Big racks run one background job per host: the sweep scales the
  // fabric and host count, not the per-host app mix.
  config.jobs_per_host = hosts > 6 ? 1 : 3;
  if (hosts > 6) {
    config.cluster_hosts = std::max(6, hosts / 16);
    config.nic_params.hosts_per_cluster = config.cluster_hosts;
    config.nic_params.inter_cluster_extra_delay = 4 * kUsec;
  }
  return config;
}

ScalingPoint MeasureShardedRack(int hosts, int shards, SimDuration warmup,
                                SimDuration window,
                                bool enable_profiling = false,
                                std::string* profile_json = nullptr) {
  RpcRackConfig config = ScalingRackConfig(hosts);
  ScalingPoint point;
  point.hosts = hosts;
  point.shards = shards;
  // Worker threads = shards, capped by the machine's cores (threads
  // beyond that only time-slice); results are bit-identical to
  // sequential execution, so wall time is the only thing the thread
  // count can change.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  point.num_threads =
      shards > 1 ? std::min(shards, std::max(1, hw)) : 0;
  // Traffic-aware placement from the workload-declared matrix; the
  // 1-shard point trivially places everything on shard 0.
  Placement placement = Placement::TrafficAware(
      BuildRackTrafficMatrix(config), shards);
  Timed timed;
  ShardedRackResult result = RunPonyRpcRackSharded(
      config, shards, point.num_threads, warmup, window, &placement,
      enable_profiling, profile_json);
  timed.Finish(&point.m);
  point.m.events = result.rack.sim_events;
  point.m.packets = result.rack.fabric_packets;
  point.m.sim_sec = ToSec(result.rack.sim_end_time);
  point.epochs = result.epochs;
  point.critical_path_events = result.critical_path_events;
  point.handoffs = result.exchange_handoffs;
  point.local_direct = result.exchange_local_direct;
  point.cross_shard = result.exchange_cross_shard;
  point.exchanges = result.exchanges;
  point.rpcs = result.rack.background_rpcs;
  point.speedup_cp = result.speedup_critical_path();
  return point;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  std::string only;
  std::string trace_path;
  std::string trace_sharded_path;
  std::string profile_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      only = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-sharded") == 0 && i + 1 < argc) {
      trace_sharded_path = argv[++i];
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profile_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json PATH] [--only CASE] "
                   "[--trace PATH] [--trace-sharded PATH] [--profile PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!only.empty() && !json_path.empty()) {
    std::fprintf(stderr, "--only and --json are mutually exclusive\n");
    return 2;
  }

  const int64_t churn_events = smoke ? 200'000 : 4'000'000;
  const int64_t cancel_events = smoke ? 100'000 : 2'000'000;
  const SimDuration rack_warmup = smoke ? 5 * kMsec : 20 * kMsec;
  const SimDuration rack_window = smoke ? 15 * kMsec : 100 * kMsec;

  PrintHeader(smoke ? "Simulator speed (smoke)" : "Simulator speed");

  struct Case {
    const char* name;
    Measurement m;
  };
  Case cases[3];

  auto want = [&only](const char* name) {
    return only.empty() || only == name;
  };
  // The rack workload runs first: it is the headline comparison against
  // the recorded pre-PR baseline, which was measured on a cold machine.
  // Running it after seconds of churn load would measure it on a
  // thermally throttled core that the baseline never saw.
  cases[0].name = "rack_fig6b";
  if (want(cases[0].name)) {
    cases[0].m = MeasureRack(rack_warmup, rack_window);
  }
  cases[1].name = "event_churn";
  if (want(cases[1].name)) {
    cases[1].m = MeasureEventChurn(churn_events);
  }
  cases[2].name = "cancel_churn";
  if (want(cases[2].name)) {
    cases[2].m = MeasureCancelChurn(cancel_events);
  }

  for (const Case& c : cases) {
    if (c.m.events == 0) {
      continue;  // skipped by --only
    }
    PrintMeasurement(c.name, c.m);
  }
  const Measurement& rack = cases[0].m;
  if (rack.wall_sec > 0) {
    std::printf("  rack sim-time/wall-time: %.1fx (%.3f sim-sec in %.3f s)\n",
                rack.sim_sec / rack.wall_sec, rack.sim_sec, rack.wall_sec);
  }

  // Rack-scaling leg: rack sizes x shard counts on the sharded engine.
  std::vector<ScalingPoint> scaling;
  bool scaling_parity_ok = true;
  double scaling_speedup_best = 0;
  ScalingPoint prof_point;
  double profiler_overhead_pct = 0;
  bool have_profiler = false;
  std::string profile_json;
  if (want("rack_scaling")) {
    const std::vector<int> rack_sizes =
        smoke ? std::vector<int>{6, 24} : std::vector<int>{6, 96, 384};
    const int hw_cores =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    std::printf("  rack scaling (sharded engine, conservative sync, "
                "%d hw cores):\n",
                hw_cores);
    for (int hosts : rack_sizes) {
      // The largest rack adds a 16-shard point: the critical-path speedup
      // is bounded by the shard count, so the headline number needs more
      // shards than the mid-sweep points.
      std::vector<int> shard_counts = {1, 2, 4, 8};
      if (hosts == rack_sizes.back()) {
        shard_counts.push_back(16);
      }
      // Window shrinks with rack size so every point stays minutes-cheap;
      // the per-point simulated work is what the critical-path ratio
      // normalizes over, so points remain comparable.
      SimDuration sc_warmup, sc_window;
      if (smoke) {
        sc_warmup = 1 * kMsec;
        sc_window = hosts > 6 ? 2 * kMsec : 3 * kMsec;
      } else {
        sc_warmup = hosts > 96 ? 1 * kMsec : (hosts > 6 ? 2 * kMsec : 5 * kMsec);
        sc_window = hosts > 96 ? 4 * kMsec : (hosts > 6 ? 8 * kMsec : 20 * kMsec);
      }
      int64_t first_packets = -1;
      int64_t first_rpcs = -1;
      double serial_wall = 0;
      for (int shards : shard_counts) {
        ScalingPoint p = MeasureShardedRack(hosts, shards, sc_warmup,
                                            sc_window);
        if (first_packets < 0) {
          first_packets = p.m.packets;
          first_rpcs = p.rpcs;
          serial_wall = p.m.wall_sec;
        } else if (p.m.packets != first_packets || p.rpcs != first_rpcs) {
          scaling_parity_ok = false;
          std::printf("  PARITY FAIL: %d hosts, %d shards: packets %lld vs "
                      "%lld, rpcs %lld vs %lld\n",
                      hosts, shards, static_cast<long long>(p.m.packets),
                      static_cast<long long>(first_packets),
                      static_cast<long long>(p.rpcs),
                      static_cast<long long>(first_rpcs));
        }
        p.speedup_wall =
            p.m.wall_sec > 0 ? serial_wall / p.m.wall_sec : 0;
        if (hosts == rack_sizes.back() && shards == shard_counts.back()) {
          scaling_speedup_best = p.speedup_cp;
        }
        std::printf("    %4d hosts %2d shards %2d thr  %8.3fs wall "
                    "(%4.2fx)  %8.2fM events  %7.2fM ev/s  cp-speedup "
                    "%5.2fx  %7lld epochs  %6lld exch  %9lld handoffs "
                    "(%lld cross, %lld local)\n",
                    p.hosts, p.shards, p.num_threads, p.m.wall_sec,
                    p.speedup_wall,
                    static_cast<double>(p.m.events) / 1e6,
                    p.m.events_per_sec() / 1e6, p.speedup_cp,
                    static_cast<long long>(p.epochs),
                    static_cast<long long>(p.exchanges),
                    static_cast<long long>(p.handoffs),
                    static_cast<long long>(p.cross_shard),
                    static_cast<long long>(p.local_direct));
        scaling.push_back(p);
      }
      if (hw_cores < shard_counts.back()) {
        // Soft gate only: wall-clock numbers on an undersized runner
        // time-slice shards onto too few cores; the critical-path ratio
        // is the machine-independent scaling signal.
        std::printf("  note: %d hw cores < %d shards; wall-clock speedups "
                    "above are core-starved (cp-speedup is the signal)\n",
                    hw_cores, shard_counts.back());
      }
    }
    std::printf("  rack scaling parity (packets+rpcs invariant across "
                "shard counts): %s\n",
                scaling_parity_ok ? "OK" : "FAILED");

    // Profiler overhead: the largest sweep point re-run with the engine
    // profiler + series sampling armed, against an unprofiled run of the
    // identical configuration. Measured as the median of kRackTrials
    // back-to-back (plain, profiled) pairs: single runs on a shared host
    // differ by 15-30% from machine noise alone — far more than the
    // effect being measured — so pairing controls for load drift and the
    // median discards the odd trial a noisy neighbour lands on. The
    // acceptance bar is <= 5% events/sec; the number is recorded in the
    // JSON so tools/bench_trajectory.py tracks it across PRs.
    if (!scaling.empty()) {
      const ScalingPoint& largest = scaling.back();
      SimDuration pw, pn;
      if (smoke) {
        pw = 1 * kMsec;
        pn = 2 * kMsec;
      } else {
        pw = largest.hosts > 96 ? 1 * kMsec
                                : (largest.hosts > 6 ? 2 * kMsec : 5 * kMsec);
        pn = largest.hosts > 96 ? 4 * kMsec
                                : (largest.hosts > 6 ? 8 * kMsec : 20 * kMsec);
      }
      std::vector<double> pair_overhead_pct;
      for (int trial = 0; trial < kRackTrials; ++trial) {
        ScalingPoint pp =
            MeasureShardedRack(largest.hosts, largest.shards, pw, pn);
        ScalingPoint qp = MeasureShardedRack(largest.hosts, largest.shards,
                                             pw, pn,
                                             /*enable_profiling=*/true,
                                             &profile_json);
        if (trial == 0 || qp.m.wall_sec < prof_point.m.wall_sec) {
          prof_point = qp;
        }
        const double pct =
            qp.m.events_per_sec() > 0
                ? (pp.m.events_per_sec() / qp.m.events_per_sec() - 1.0) *
                      100.0
                : 0;
        pair_overhead_pct.push_back(pct);
        std::printf("    overhead trial %d: plain %.3fs, profiled %.3fs "
                    "(%+.2f%%)\n",
                    trial, pp.m.wall_sec, qp.m.wall_sec, pct);
      }
      have_profiler = true;
      std::sort(pair_overhead_pct.begin(), pair_overhead_pct.end());
      profiler_overhead_pct =
          pair_overhead_pct[pair_overhead_pct.size() / 2];
      std::printf("  profiler overhead (%d hosts, %d shards, median of %d "
                  "paired trials): %+.2f%%\n",
                  largest.hosts, largest.shards, kRackTrials,
                  profiler_overhead_pct);
      if (!profile_path.empty()) {
        if (FILE* pf = std::fopen(profile_path.c_str(), "w")) {
          std::fprintf(pf, "%s\n", profile_json.c_str());
          std::fclose(pf);
          std::printf("  wrote %s\n", profile_path.c_str());
        } else {
          std::fprintf(stderr, "cannot write %s\n", profile_path.c_str());
          return 1;
        }
      }
    }
  }

  // Dedicated traced run (never timed): writes a Chrome-trace JSON of the
  // rack workload for chrome://tracing / Perfetto / tools/trace_report.py,
  // and prints the telemetry dashboard for the same run.
  if (!trace_path.empty()) {
    TraceRecorder tracer;
    RpcRackConfig config = RackConfig();
    config.tracer = &tracer;
    RpcRackResult result = RunPonyRpcRack(config, rack_warmup, rack_window);
    if (!tracer.WriteJson(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("  wrote %s (%zu trace events, %.3f sim-sec)\n",
                trace_path.c_str(), tracer.size(),
                ToSec(result.sim_end_time));
    std::printf("%s", result.telemetry_dashboard.c_str());
  }

  // Dedicated sharded traced run (never timed): a small profiled rack on
  // the sharded engine, merged Chrome trace with the per-shard prof/
  // counter tracks for tools/trace_report.py's profiler rollup.
  if (!trace_sharded_path.empty()) {
    std::string merged;
    RunPonyRpcRackSharded(ScalingRackConfig(24), /*num_shards=*/4,
                          /*num_threads=*/1, /*warmup=*/1 * kMsec,
                          /*window=*/2 * kMsec, /*placement=*/nullptr,
                          /*enable_profiling=*/true, /*profile_json=*/nullptr,
                          &merged);
    FILE* tf = std::fopen(trace_sharded_path.c_str(), "w");
    if (tf == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", trace_sharded_path.c_str());
      return 1;
    }
    std::fwrite(merged.data(), 1, merged.size(), tf);
    std::fclose(tf);
    std::printf("  wrote %s (merged sharded trace, %zu bytes)\n",
                trace_sharded_path.c_str(), merged.size());
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"smoke\": %s,\n  \"benchmarks\": {\n",
                 smoke ? "true" : "false");
    for (size_t i = 0; i < 3; ++i) {
      const Case& c = cases[i];
      std::fprintf(f, "    \"%s\": {\n", c.name);
      JsonMeasurement(f, c.m);
      std::fprintf(f, "    }%s\n", i + 1 < 3 ? "," : "");
    }
    if (!scaling.empty()) {
      std::fprintf(f, "    ,\"rack_scaling\": {\n      \"points\": [\n");
      for (size_t i = 0; i < scaling.size(); ++i) {
        const ScalingPoint& p = scaling[i];
        std::fprintf(
            f,
            "        {\"hosts\": %d, \"shards\": %d, \"num_threads\": %d, "
            "\"wall_sec\": %.6f, \"speedup_wall\": %.4f, "
            "\"events\": %lld, \"events_per_sec\": %.1f, "
            "\"packets\": %lld, \"rpcs\": %lld, \"epochs\": %lld, "
            "\"critical_path_events\": %lld, "
            "\"speedup_critical_path\": %.4f, \"handoffs\": %lld, "
            "\"local_direct\": %lld, \"cross_shard\": %lld, "
            "\"exchanges\": %lld}%s\n",
            p.hosts, p.shards, p.num_threads, p.m.wall_sec, p.speedup_wall,
            static_cast<long long>(p.m.events), p.m.events_per_sec(),
            static_cast<long long>(p.m.packets),
            static_cast<long long>(p.rpcs),
            static_cast<long long>(p.epochs),
            static_cast<long long>(p.critical_path_events), p.speedup_cp,
            static_cast<long long>(p.handoffs),
            static_cast<long long>(p.local_direct),
            static_cast<long long>(p.cross_shard),
            static_cast<long long>(p.exchanges),
            i + 1 < scaling.size() ? "," : "");
      }
      const int hw_cores = std::max(
          1, static_cast<int>(std::thread::hardware_concurrency()));
      std::fprintf(f,
                   "      ],\n      \"hw_cores\": %d,\n"
                   "      \"parity_ok\": %s,\n"
                   "      \"speedup_critical_path_max_rack\": %.4f",
                   hw_cores, scaling_parity_ok ? "true" : "false",
                   scaling_speedup_best);
      if (have_profiler) {
        std::fprintf(
            f,
            ",\n      \"profiler\": {\"hosts\": %d, \"shards\": %d, "
            "\"wall_sec\": %.6f, \"events_per_sec\": %.1f, "
            "\"overhead_pct\": %.3f}",
            prof_point.hosts, prof_point.shards, prof_point.m.wall_sec,
            prof_point.m.events_per_sec(), profiler_overhead_pct);
      }
      std::fprintf(f, "\n    }\n");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("  wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace snap

int main(int argc, char** argv) { return snap::Main(argc, argv); }
