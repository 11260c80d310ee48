// Live-mode echo benchmark: real OS threads, real clocks — the wall-clock
// counterpart of bench_fig6a_latency. Two live hosts run a closed-loop
// echo RPC workload per case: ping-pong (window 1, exact RTTs) and
// pipelined (window 16, throughput) legs over the in-process loopback
// ring fabric and real UDP, plus one leg per scheduling mode (dedicated /
// spreading / compacting engine workers) and a blocking-notify leg where
// the app threads sleep on the completion doorbell instead of
// spin-polling.
//
// Numbers here are wall-clock on whatever machine runs this, so the JSON
// records hw_cores and per-case num_threads and the trajectory gate
// (tools/bench_trajectory.py --bench live_echo) is completeness — every
// RPC finished, zero transport errors — everywhere, with hard
// latency/throughput bars applied only on runners with enough cores to
// actually run the threads in parallel (core-starved runs warn instead).
//
// Usage:
//   bench_live_echo [--smoke] [--json PATH]
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/live/live_apps.h"
#include "src/live/live_runtime.h"
#include "src/snap/engine_group.h"
#include "src/util/doorbell.h"

namespace snap {
namespace {

struct CaseResult {
  std::string name;
  bool ran = false;
  std::string skip_reason;
  int iterations = 0;
  int64_t message_bytes = 0;
  int outstanding = 0;
  std::string mode = "dedicated";  // engine scheduling mode
  bool blocking = false;           // app threads sleep on the doorbell
  int num_threads = 0;             // scheduler workers + app threads
  bool completed = false;  // all RPCs finished before the deadline
  int64_t errors = 0;
  int64_t client_poll_passes = 0;  // blocking-notify busy-poll signal
  int64_t client_waits = 0;
  double wall_sec = 0;
  double rpcs_per_sec = 0;
  double goodput_mbps = 0;
  double p50_rtt_us = 0;
  double p99_rtt_us = 0;
  int64_t fabric_delivered = 0;
  int64_t fabric_dropped = 0;
};

CaseResult RunCase(const std::string& name, LiveRuntime::FabricKind fabric,
                   int iterations, int64_t message_bytes, int outstanding,
                   SchedulingMode mode = SchedulingMode::kDedicatedCores,
                   bool blocking = false) {
  CaseResult result;
  result.name = name;
  result.iterations = iterations;
  result.message_bytes = message_bytes;
  result.outstanding = outstanding;
  result.mode = SchedulingModeName(mode);
  result.blocking = blocking;

  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = fabric;
  options.scheduler.mode = mode;
  LiveRuntime runtime(options);
  Status init = runtime.Init();
  if (!init.ok()) {
    result.skip_reason = std::string(init.message());
    return result;
  }
  auto client = runtime.host(0)->CreateClient("bench-client");
  auto server = runtime.host(1)->CreateClient("bench-server");
  PonyAddress client_addr = runtime.host(0)->engine()->address();
  PonyAddress server_addr = runtime.host(1)->engine()->address();
  uint64_t ping_stream = client->CreateStream(server_addr);
  uint64_t reply_stream = server->CreateStream(client_addr);
  LivePeer echo;
  echo.echo_to = client_addr;
  echo.echo_stream = reply_stream;
  echo.echoes = iterations;
  LivePeer ping;
  ping.ping_to = server_addr;
  ping.ping_stream = ping_stream;
  ping.pings = iterations;
  ping.message_bytes = message_bytes;
  ping.window = outstanding;
  Doorbell client_bell, server_bell;
  if (blocking) {
    client->BindDoorbell(&client_bell);
    server->BindDoorbell(&server_bell);
    ping.doorbell = &client_bell;
    echo.doorbell = &server_bell;
  }

  runtime.Start();
  // Engine workers plus the two app threads below.
  result.num_threads = runtime.scheduler()->num_workers() + 2;
  ping.deadline_ns = MonotonicTimeNs() + 120LL * 1000 * 1000 * 1000;
  echo.deadline_ns = ping.deadline_ns;
  LiveAppResult client_result, server_result;
  std::thread server_thread(
      [&] { server_result = RunLivePeer(server.get(), echo); });
  int64_t t0 = MonotonicTimeNs();
  client_result = RunLivePeer(client.get(), ping);
  int64_t t1 = MonotonicTimeNs();
  server_thread.join();
  runtime.Stop();

  result.ran = true;
  result.client_poll_passes = client_result.poll_passes;
  result.client_waits = client_result.waits;
  result.completed = !client_result.timed_out && !server_result.timed_out &&
                     client_result.rpcs_completed == iterations;
  result.errors = client_result.send_errors + server_result.send_errors;
  result.wall_sec = static_cast<double>(t1 - t0) / 1e9;
  if (result.wall_sec > 0) {
    result.rpcs_per_sec =
        static_cast<double>(client_result.rpcs_completed) / result.wall_sec;
    result.goodput_mbps = static_cast<double>(client_result.bytes_received) *
                          8.0 / result.wall_sec / 1e6;
  }
  result.p50_rtt_us = client_result.RttPercentileUs(50);
  result.p99_rtt_us = client_result.RttPercentileUs(99);
  LiveRuntime::FabricStats fabric_stats = runtime.GetFabricStats();
  result.fabric_delivered = fabric_stats.delivered;
  result.fabric_dropped = fabric_stats.dropped;
  return result;
}

void PrintCase(const CaseResult& r) {
  if (!r.ran) {
    std::printf("%-20s SKIPPED (%s)\n", r.name.c_str(),
                r.skip_reason.c_str());
    return;
  }
  std::printf("%-20s %7d x %5lldB w=%-3d %s  %10.0f rpc/s  %8.1f Mbps  "
              "p50 %7.1fus  p99 %7.1fus  drops %lld\n",
              r.name.c_str(), r.iterations,
              static_cast<long long>(r.message_bytes), r.outstanding,
              r.completed && r.errors == 0 ? "ok  " : "FAIL",
              r.rpcs_per_sec, r.goodput_mbps, r.p50_rtt_us, r.p99_rtt_us,
              static_cast<long long>(r.fabric_dropped));
}

void WriteJsonCase(std::FILE* f, const CaseResult& r, bool last) {
  std::fprintf(f, "    \"%s\": {\n", r.name.c_str());
  std::fprintf(f, "      \"ran\": %s,\n", r.ran ? "true" : "false");
  if (!r.ran) {
    std::fprintf(f, "      \"skip_reason\": \"%s\"\n", r.skip_reason.c_str());
  } else {
    std::fprintf(f, "      \"iterations\": %d,\n", r.iterations);
    std::fprintf(f, "      \"message_bytes\": %lld,\n",
                 static_cast<long long>(r.message_bytes));
    std::fprintf(f, "      \"outstanding\": %d,\n", r.outstanding);
    std::fprintf(f, "      \"mode\": \"%s\",\n", r.mode.c_str());
    std::fprintf(f, "      \"blocking\": %s,\n",
                 r.blocking ? "true" : "false");
    std::fprintf(f, "      \"num_threads\": %d,\n", r.num_threads);
    std::fprintf(f, "      \"client_poll_passes\": %lld,\n",
                 static_cast<long long>(r.client_poll_passes));
    std::fprintf(f, "      \"client_waits\": %lld,\n",
                 static_cast<long long>(r.client_waits));
    std::fprintf(f, "      \"completed\": %s,\n",
                 r.completed ? "true" : "false");
    std::fprintf(f, "      \"errors\": %lld,\n",
                 static_cast<long long>(r.errors));
    std::fprintf(f, "      \"wall_sec\": %.6f,\n", r.wall_sec);
    std::fprintf(f, "      \"rpcs_per_sec\": %.1f,\n", r.rpcs_per_sec);
    std::fprintf(f, "      \"goodput_mbps\": %.3f,\n", r.goodput_mbps);
    std::fprintf(f, "      \"p50_rtt_us\": %.2f,\n", r.p50_rtt_us);
    std::fprintf(f, "      \"p99_rtt_us\": %.2f,\n", r.p99_rtt_us);
    std::fprintf(f, "      \"fabric_delivered\": %lld,\n",
                 static_cast<long long>(r.fabric_delivered));
    std::fprintf(f, "      \"fabric_dropped\": %lld\n",
                 static_cast<long long>(r.fabric_dropped));
  }
  std::fprintf(f, "    }%s\n", last ? "" : ",");
}

int Main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  const int lat_iters = smoke ? 200 : 2000;
  const int tput_iters = smoke ? 400 : 4000;
  const int64_t lat_bytes = 64;
  const int64_t tput_bytes = 4096;

  std::printf("live echo benchmark (%s): 2 hosts, engines on real "
              "threads\n\n", smoke ? "smoke" : "full");
  std::vector<CaseResult> results;
  results.push_back(RunCase("loopback_latency",
                            LiveRuntime::FabricKind::kLoopback, lat_iters,
                            lat_bytes, /*outstanding=*/1));
  results.push_back(RunCase("loopback_throughput",
                            LiveRuntime::FabricKind::kLoopback, tput_iters,
                            tput_bytes, /*outstanding=*/16));
  results.push_back(RunCase("udp_latency", LiveRuntime::FabricKind::kUdp,
                            lat_iters, lat_bytes, /*outstanding=*/1));
  results.push_back(RunCase("udp_throughput", LiveRuntime::FabricKind::kUdp,
                            tput_iters, tput_bytes, /*outstanding=*/16));
  // Scheduling-mode legs (Section 2.4 live) and blocking notification
  // (Section 3.1): same pipelined workload, different engine placement /
  // app wakeup policy.
  results.push_back(RunCase("loopback_spreading",
                            LiveRuntime::FabricKind::kLoopback, tput_iters,
                            tput_bytes, /*outstanding=*/16,
                            SchedulingMode::kSpreadingEngines));
  results.push_back(RunCase("loopback_compacting",
                            LiveRuntime::FabricKind::kLoopback, tput_iters,
                            tput_bytes, /*outstanding=*/16,
                            SchedulingMode::kCompactingEngines));
  results.push_back(RunCase("loopback_blocking",
                            LiveRuntime::FabricKind::kLoopback, tput_iters,
                            tput_bytes, /*outstanding=*/16,
                            SchedulingMode::kSpreadingEngines,
                            /*blocking=*/true));
  for (const CaseResult& r : results) {
    PrintCase(r);
  }

  bool ok = true;
  for (const CaseResult& r : results) {
    if (r.ran && (!r.completed || r.errors != 0)) {
      ok = false;
    }
  }
  std::printf("\n%s\n", ok ? "all live echo cases completed cleanly"
                           : "FAILURE: incomplete or errored cases");

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 2;
    }
    std::fprintf(f, "{\n  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"hw_cores\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"benchmarks\": {\n");
    for (size_t i = 0; i < results.size(); ++i) {
      WriteJsonCase(f, results[i], i + 1 == results.size());
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace snap

int main(int argc, char** argv) { return snap::Main(argc, argv); }
