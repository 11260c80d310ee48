// live_node: one process of a cross-process live rack. Each node owns a
// subset of the rack's hosts (--local-hosts), rendezvouses peer endpoints
// through the directory (--directory; exactly one node passes
// --serve-directory), and runs the ring workload: every host ping-pongs
// with its successor ((h+1) % N) and echoes for its predecessor — so a
// two-node run exercises every cross-process edge in both directions.
//
// One PonyClient per host plays both RunLivePeer roles (live_apps.h):
// pings to the successor, echoes for the predecessor, demuxed by the echo
// tag. Remote senders' stream ids are unbound at the receiving engine, so
// delivery rides the default-sink path; the tag makes the single message
// queue unambiguous.
//
// Exit status is the CI contract: 0 iff every local host finished its
// pings, echoed every predecessor ping, and saw zero transport errors
// before the deadline. Optional artifacts: merged telemetry snapshot,
// merged Chrome trace, live scheduler profile (written periodically while
// running — the snaptop.py --live-profile feed — and exactly at Stop).
//
// Usage (two processes, host 0 serving the directory on port P):
//   live_node --num-hosts 2 --local-hosts 0 --directory 127.0.0.1:P
//             --serve-directory --mode spreading
//   live_node --num-hosts 2 --local-hosts 1 --directory 127.0.0.1:P
//             --mode spreading
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/live/live_apps.h"
#include "src/live/live_runtime.h"
#include "src/snap/engine_group.h"
#include "src/util/doorbell.h"

namespace snap {
namespace {

struct NodeOptions {
  int num_hosts = 2;
  std::vector<int> local_hosts;  // empty = all
  LiveRuntime::FabricKind fabric = LiveRuntime::FabricKind::kUdp;
  std::string directory_address = "127.0.0.1";
  uint16_t directory_port = 0;
  bool serve_directory = false;
  SchedulingMode mode = SchedulingMode::kDedicatedCores;
  int iterations = 2000;
  int64_t message_bytes = 64;
  int window = 4;
  bool blocking = false;
  int64_t deadline_sec = 120;
  // After the local apps finish, keep the engines running this long so
  // peer nodes' final retransmits still find a live acker.
  int64_t linger_ms = 300;
  const char* json_path = nullptr;
  const char* telemetry_path = nullptr;
  const char* trace_path = nullptr;
  const char* profile_path = nullptr;
  int profile_interval_ms = 100;
};

std::vector<int> ParseHostList(const char* arg) {
  std::vector<int> hosts;
  const char* p = arg;
  while (*p != '\0') {
    char* end = nullptr;
    long value = std::strtol(p, &end, 10);
    if (end == p) {
      std::fprintf(stderr, "bad --local-hosts list: %s\n", arg);
      std::exit(2);
    }
    hosts.push_back(static_cast<int>(value));
    p = (*end == ',') ? end + 1 : end;
  }
  return hosts;
}

bool ParseEndpoint(const char* arg, std::string* address, uint16_t* port) {
  const char* colon = std::strrchr(arg, ':');
  if (colon == nullptr || colon == arg) {
    return false;
  }
  *address = std::string(arg, colon - arg);
  long value = std::strtol(colon + 1, nullptr, 10);
  if (value <= 0 || value > 65535) {
    return false;
  }
  *port = static_cast<uint16_t>(value);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--num-hosts N] [--local-hosts 0,1,..] "
      "[--fabric loopback|udp] [--directory ADDR:PORT] [--serve-directory] "
      "[--mode dedicated|spreading|compacting] [--iterations I] "
      "[--bytes B] [--window W] [--blocking] [--deadline-sec S] "
      "[--linger-ms MS] "
      "[--json PATH] [--telemetry-out PATH] [--trace-out PATH] "
      "[--profile-out PATH] [--profile-interval-ms MS]\n",
      argv0);
  return 2;
}

int Main(int argc, char** argv) {
  NodeOptions opts;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--num-hosts") == 0) {
      opts.num_hosts = std::atoi(next("--num-hosts"));
    } else if (std::strcmp(argv[i], "--local-hosts") == 0) {
      opts.local_hosts = ParseHostList(next("--local-hosts"));
    } else if (std::strcmp(argv[i], "--fabric") == 0) {
      const char* value = next("--fabric");
      if (std::strcmp(value, "loopback") == 0) {
        opts.fabric = LiveRuntime::FabricKind::kLoopback;
      } else if (std::strcmp(value, "udp") == 0) {
        opts.fabric = LiveRuntime::FabricKind::kUdp;
      } else {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--directory") == 0) {
      if (!ParseEndpoint(next("--directory"), &opts.directory_address,
                         &opts.directory_port)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--serve-directory") == 0) {
      opts.serve_directory = true;
    } else if (std::strcmp(argv[i], "--mode") == 0) {
      if (!SchedulingModeFromString(next("--mode"), &opts.mode)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--iterations") == 0) {
      opts.iterations = std::atoi(next("--iterations"));
    } else if (std::strcmp(argv[i], "--bytes") == 0) {
      opts.message_bytes = std::atoll(next("--bytes"));
    } else if (std::strcmp(argv[i], "--window") == 0) {
      opts.window = std::atoi(next("--window"));
    } else if (std::strcmp(argv[i], "--blocking") == 0) {
      opts.blocking = true;
    } else if (std::strcmp(argv[i], "--deadline-sec") == 0) {
      opts.deadline_sec = std::atoll(next("--deadline-sec"));
    } else if (std::strcmp(argv[i], "--linger-ms") == 0) {
      opts.linger_ms = std::atoll(next("--linger-ms"));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opts.json_path = next("--json");
    } else if (std::strcmp(argv[i], "--telemetry-out") == 0) {
      opts.telemetry_path = next("--telemetry-out");
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      opts.trace_path = next("--trace-out");
    } else if (std::strcmp(argv[i], "--profile-out") == 0) {
      opts.profile_path = next("--profile-out");
    } else if (std::strcmp(argv[i], "--profile-interval-ms") == 0) {
      opts.profile_interval_ms = std::atoi(next("--profile-interval-ms"));
    } else {
      return Usage(argv[0]);
    }
  }
  if (opts.num_hosts < 2 || opts.message_bytes < 16 || opts.window < 1 ||
      opts.iterations < 1) {
    return Usage(argv[0]);
  }

  LiveRuntime::Options runtime_opts;
  runtime_opts.num_hosts = opts.num_hosts;
  runtime_opts.local_hosts = opts.local_hosts;
  runtime_opts.fabric = opts.fabric;
  runtime_opts.scheduler.mode = opts.mode;
  runtime_opts.udp.directory_address = opts.directory_address;
  runtime_opts.udp.directory_port = opts.directory_port;
  runtime_opts.udp.directory_server = opts.serve_directory;
  LiveRuntime runtime(runtime_opts);
  if (opts.trace_path != nullptr) {
    runtime.EnableTracing();
  }
  if (opts.profile_path != nullptr) {
    runtime.scheduler()->EnableProfileDump(opts.profile_path,
                                           opts.profile_interval_ms);
  }

  Status init = runtime.Init();
  if (!init.ok()) {
    std::fprintf(stderr, "init failed: %s\n",
                 std::string(init.message()).c_str());
    return 1;
  }

  // Setup phase: one client + its two ring streams per local host.
  struct HostApp {
    int host;
    std::unique_ptr<PonyClient> client;
    std::unique_ptr<Doorbell> doorbell;
    LivePeer peer;
    LiveAppResult result;
  };
  std::vector<HostApp> apps;
  for (int h = 0; h < runtime.num_hosts(); ++h) {
    LiveHost* host = runtime.host(h);
    if (host == nullptr) {
      continue;  // remote host: some other node runs it
    }
    HostApp app;
    app.host = h;
    app.client = host->CreateClient("ring-h" + std::to_string(h));
    int succ = (h + 1) % opts.num_hosts;
    int pred = (h + opts.num_hosts - 1) % opts.num_hosts;
    // Engine ids are host + 1 by construction, so remote addresses need
    // no coordination.
    LivePeer& peer = app.peer;
    peer.ping_to = PonyAddress{succ, static_cast<uint32_t>(succ + 1)};
    peer.ping_stream = app.client->CreateStream(peer.ping_to);
    peer.pings = opts.iterations;
    peer.message_bytes = opts.message_bytes;
    peer.window = opts.window;
    peer.echo_to = PonyAddress{pred, static_cast<uint32_t>(pred + 1)};
    peer.echo_stream = app.client->CreateStream(peer.echo_to);
    peer.echoes = opts.iterations;
    peer.linger_ns = opts.linger_ms * 1'000'000;
    if (opts.blocking) {
      app.doorbell = std::make_unique<Doorbell>();
      app.client->BindDoorbell(app.doorbell.get());
      peer.doorbell = app.doorbell.get();
    }
    apps.push_back(std::move(app));
  }

  runtime.Start();
  int64_t t0 = MonotonicTimeNs();
  std::vector<std::thread> threads;
  threads.reserve(apps.size());
  for (HostApp& app : apps) {
    app.peer.deadline_ns = t0 + opts.deadline_sec * 1'000'000'000;
    threads.emplace_back(
        [&app] { app.result = RunLivePeer(app.client.get(), app.peer); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  int64_t t1 = MonotonicTimeNs();
  // Keep the engines acking for peers whose tail drain is still running.
  if (opts.fabric == LiveRuntime::FabricKind::kUdp &&
      !opts.local_hosts.empty()) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opts.linger_ms));
  }
  runtime.Stop();

  bool ok = true;
  for (const HostApp& app : apps) {
    const LiveAppResult& r = app.result;
    bool host_ok = !r.timed_out && r.rpcs_completed == opts.iterations &&
                   r.echoes_sent == opts.iterations && r.send_errors == 0;
    ok = ok && host_ok;
    std::printf(
        "host %d %s  pings %lld/%d  echoes %lld  p50 %7.1fus  "
        "p99 %7.1fus  polls %lld  waits %lld\n",
        app.host, host_ok ? "ok  " : "FAIL",
        static_cast<long long>(r.rpcs_completed), opts.iterations,
        static_cast<long long>(r.echoes_sent), r.RttPercentileUs(50),
        r.RttPercentileUs(99), static_cast<long long>(r.poll_passes),
        static_cast<long long>(r.waits));
  }
  LiveRuntime::FabricStats fabric = runtime.GetFabricStats();
  double wall_sec = static_cast<double>(t1 - t0) / 1e9;
  std::printf("%s: mode=%s blocking=%d wall %.3fs fabric delivered %lld "
              "dropped %lld migrations %lld\n",
              ok ? "ring complete" : "RING FAILED",
              SchedulingModeName(opts.mode), opts.blocking ? 1 : 0,
              wall_sec, static_cast<long long>(fabric.delivered),
              static_cast<long long>(fabric.dropped),
              static_cast<long long>(runtime.scheduler()->migrations()));

  if (opts.telemetry_path != nullptr) {
    Telemetry merged;
    runtime.MergeTelemetry(&merged);
    std::FILE* f = std::fopen(opts.telemetry_path, "w");
    if (f != nullptr) {
      std::string json = merged.SnapshotJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  if (opts.trace_path != nullptr) {
    runtime.MergedTrace()->WriteJson(opts.trace_path);
  }

  if (opts.json_path != nullptr) {
    std::FILE* f = std::fopen(opts.json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", opts.json_path);
      return 2;
    }
    std::fprintf(f, "{\n  \"ok\": %s,\n", ok ? "true" : "false");
    std::fprintf(f, "  \"num_hosts\": %d,\n", opts.num_hosts);
    std::fprintf(f, "  \"epoch_ns\": %lld,\n",
                 static_cast<long long>(runtime.epoch_ns()));
    std::fprintf(f, "  \"mode\": \"%s\",\n", SchedulingModeName(opts.mode));
    std::fprintf(f, "  \"blocking\": %s,\n",
                 opts.blocking ? "true" : "false");
    std::fprintf(f, "  \"iterations\": %d,\n", opts.iterations);
    std::fprintf(f, "  \"wall_sec\": %.6f,\n", wall_sec);
    std::fprintf(f, "  \"fabric_delivered\": %lld,\n",
                 static_cast<long long>(fabric.delivered));
    std::fprintf(f, "  \"fabric_dropped\": %lld,\n",
                 static_cast<long long>(fabric.dropped));
    std::fprintf(f, "  \"sched_workers\": %d,\n",
                 runtime.scheduler()->num_workers());
    std::fprintf(f, "  \"sched_migrations\": %lld,\n",
                 static_cast<long long>(runtime.scheduler()->migrations()));
    std::fprintf(f, "  \"hosts\": {\n");
    for (size_t i = 0; i < apps.size(); ++i) {
      const LiveAppResult& r = apps[i].result;
      std::fprintf(f, "    \"%d\": {\n", apps[i].host);
      std::fprintf(f, "      \"pongs_received\": %lld,\n",
                   static_cast<long long>(r.rpcs_completed));
      std::fprintf(f, "      \"echoes_sent\": %lld,\n",
                   static_cast<long long>(r.echoes_sent));
      std::fprintf(f, "      \"send_errors\": %lld,\n",
                   static_cast<long long>(r.send_errors));
      std::fprintf(f, "      \"poll_passes\": %lld,\n",
                   static_cast<long long>(r.poll_passes));
      std::fprintf(f, "      \"waits\": %lld,\n",
                   static_cast<long long>(r.waits));
      std::fprintf(f, "      \"completions_missing\": %lld,\n",
                   static_cast<long long>(r.completions_missing));
      std::fprintf(f, "      \"p50_rtt_us\": %.2f,\n",
                   r.RttPercentileUs(50));
      std::fprintf(f, "      \"p99_rtt_us\": %.2f,\n",
                   r.RttPercentileUs(99));
      std::fprintf(f, "      \"timed_out\": %s\n",
                   r.timed_out ? "true" : "false");
      std::fprintf(f, "    }%s\n", i + 1 == apps.size() ? "" : ",");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace snap

int main(int argc, char** argv) { return snap::Main(argc, argv); }
