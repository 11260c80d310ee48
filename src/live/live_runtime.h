// LiveRuntime: assembles a rack of live hosts — per-host LiveExecutor +
// Nic + PonyEngine over a shared fabric (loopback rings or UDP sockets) —
// and runs them on real OS threads.
//
// This is the "one codebase, simulated and real" endpoint (ROADMAP item
// 2): the engines, NIC model, QoS elements and telemetry are the exact
// objects the simulator drives; only the substrate underneath differs.
// Apps attach PonyClients and talk to engines over the same SPSC
// command/completion rings, now genuinely concurrent.
//
// Phases and their threading rules:
//  1. Construction + client/stream setup: single-threaded. Everything that
//     mutates engine maps — CreateClient, CreateStream on the client,
//     QoS enablement, tracing — happens here.
//  2. Start()..Stop(): scheduler workers run. Apps may only submit commands,
//     poll completions/messages, and read the clock.
//  3. After Stop(): single-threaded again; stats, telemetry merges and
//     trace extraction are exact.
#ifndef SRC_LIVE_LIVE_RUNTIME_H_
#define SRC_LIVE_LIVE_RUNTIME_H_

#include <memory>
#include <string>
#include <vector>

#include "src/live/live_executor.h"
#include "src/live/live_scheduler.h"
#include "src/live/loopback_fabric.h"
#include "src/live/udp_fabric.h"
#include "src/net/nic.h"
#include "src/pony/client.h"
#include "src/pony/pony_engine.h"
#include "src/qos/tenant.h"
#include "src/sim/model_params.h"
#include "src/stats/telemetry.h"
#include "src/stats/trace.h"
#include "src/util/status.h"

namespace snap {

class LiveRuntime;

// One live machine: an executor hosting one Pony engine on one NIC.
class LiveHost {
 public:
  LiveExecutor* executor() { return executor_.get(); }
  Nic* nic() { return nic_.get(); }
  PonyEngine* engine() { return engine_.get(); }
  int host_id() const { return host_id_; }

  // Application bootstrap (setup phase only): command/completion rings
  // shared with the engine. Client ids come from GlobalClientId, as in
  // the sim, so stream ids never collide across hosts.
  std::unique_ptr<PonyClient> CreateClient(const std::string& app_name);

 private:
  friend class LiveRuntime;
  LiveHost() = default;

  int host_id_ = -1;
  AppParams app_params_;
  uint64_t next_client_id_ = 1;
  std::unique_ptr<LiveExecutor> executor_;
  std::unique_ptr<Nic> nic_;
  std::unique_ptr<PonyEngine> engine_;
  std::unique_ptr<TraceRecorder> tracer_;
};

class LiveRuntime {
 public:
  enum class FabricKind { kLoopback, kUdp };

  struct Options {
    int num_hosts = 2;
    // Hosts this process owns (cross-process UDP runs). Empty = all.
    // Remote hosts get no executor/engine here — host(i) returns nullptr
    // for them — but their engine addresses resolve through the
    // rendezvous-fed PonyDirectory. UDP fabric only.
    std::vector<int> local_hosts;
    FabricKind fabric = FabricKind::kLoopback;
    NicParams nic;
    PonyParams pony;
    TimelyParams timely;
    AppParams app;
    LiveExecutor::Options executor;
    LoopbackFabric::Options loopback;
    UdpFabric::Options udp;
    // How executors map onto worker threads (Section 2.4 made live) and
    // the workers' idle policy. Default: dedicated mode, one worker per
    // host.
    LiveScheduler::Options scheduler;
    uint64_t seed = 1;
  };

  explicit LiveRuntime(const Options& options);
  ~LiveRuntime();

  // Binds sockets (UDP) and wires poll hooks. Call once before Start().
  Status Init();

  // Host i, or nullptr when host i lives in another process.
  LiveHost* host(int i) { return hosts_[i].get(); }
  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  PonyDirectory* directory() { return &directory_; }
  // The engine scheduler (placement stats, rebalance decisions,
  // ProfileJson). Setup-phase config like EnableProfileDump goes through
  // here too.
  LiveScheduler* scheduler() { return scheduler_.get(); }

  // Setup phase: enables DRR flow scheduling on every engine and WFQ TX
  // on every NIC. `tenants` must outlive the runtime.
  void EnableQos(const qos::TenantRegistry* tenants);
  // Setup phase: arms fixed-memory series sampling on every host's
  // registry; the executors self-pace samples off the wall clock.
  void EnableSeriesSampling(SimDuration bucket_width, int max_buckets = 64);
  // Setup phase: attaches one flight recorder per host (wall-clock
  // timestamps on the shared runtime epoch).
  void EnableTracing();

  void Start();
  void Stop();  // idempotent; joins the scheduler's workers

  // Monotonic nanoseconds since the runtime epoch — the same timeline the
  // executors and trace events use. Thread-safe.
  SimTime NowNs() const { return MonotonicTimeNs() - epoch_ns_; }
  // The epoch itself (raw CLOCK_MONOTONIC ns). Processes of one machine
  // share the clock, so publishing this lets a multi-process merger
  // re-base per-node trace timestamps onto one timeline.
  int64_t epoch_ns() const { return epoch_ns_; }

  // Post-Stop(): folds every host's registry into `out` (counters summed,
  // histograms merged, gauges snapshotted).
  void MergeTelemetry(Telemetry* out) const;

  // Post-Stop(): one deterministic trace — events of all hosts interleaved
  // by timestamp (shared epoch makes them comparable), host tracks offset
  // by kHostTrackStride like the sharded sim's merge.
  static constexpr int kHostTrackStride = 100000;
  std::unique_ptr<TraceRecorder> MergedTrace() const;

  struct FabricStats {
    int64_t delivered = 0;
    int64_t dropped = 0;
    int64_t send_calls = 0;  // UDP data send syscalls (0 on loopback)
  };
  FabricStats GetFabricStats() const;

 private:
  Options options_;
  int64_t epoch_ns_;
  PonyDirectory directory_;
  std::unique_ptr<LoopbackFabric> loopback_;
  std::unique_ptr<UdpFabric> udp_;
  std::vector<std::unique_ptr<LiveHost>> hosts_;
  std::unique_ptr<LiveScheduler> scheduler_;
  // sched_hosts_[i]: host id of the scheduler's executor i (local hosts
  // only, in host order) — labels the placement counters.
  std::vector<int> sched_hosts_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace snap

#endif  // SRC_LIVE_LIVE_RUNTIME_H_
