// LiveScheduler: Snap's engine scheduling modes (Section 2.4, Figure 3)
// on real OS threads. Where the sim-side EngineGroup schedules engine
// SimTasks over a modeled CPU, this schedules whole LiveExecutors (one
// per host: engines + NIC + timers) over worker threads:
//
//  - kDedicatedCores: one worker per executor (or dedicated_workers),
//    each spin-polling through its idle window before parking — the
//    lowest-latency mode, burning a core per engine.
//  - kSpreadingEngines: one worker per executor that parks on the
//    doorbell IMMEDIATELY when idle (no spin window) and wakes on
//    submit/packet arrival — the scale-to-zero mode.
//  - kCompactingEngines: a bounded worker pool; all executors start
//    compacted on worker 0 and a rebalancer thread runs the same
//    CompactingPolicy as the sim's CompactingGroup (src/snap/
//    engine_group.h) over the executors' queue_delay_ns: one move per
//    tick, scaling out the worst executor past the SLO (40 µs default)
//    and compacting back after calm ticks — Shenango-style.
//
// Migration protocol (compacting): executors move between workers only
// at pass boundaries. The rebalancer is the SOLE mover: it appends a
// move command to the owning worker's mailbox (mutex-protected list +
// commands_pending flag + doorbell ring). The owning worker removes the
// executor from its local set, retargets the executor's doorbell at the
// destination worker, and hands it over through the destination's
// mailbox — so engine/NIC/timer state always passes between threads
// through a mutex (happens-before), and exactly one thread runs an
// executor at any moment. owner_[exec] (written by the receiving
// worker) vs placement_ (rebalancer-only) tracks moves in flight; the
// rebalancer skips every tick while a move has not landed, so at most
// one move is in flight at a time.
//
// Each worker owns a TraceRecorder (single-writer) for its park/wake
// and migration instants; LiveRuntime merges them after Stop() on
// tracks offset past the host tracks.
#ifndef SRC_LIVE_LIVE_SCHEDULER_H_
#define SRC_LIVE_LIVE_SCHEDULER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/live/live_executor.h"
#include "src/snap/engine_group.h"
#include "src/stats/trace.h"
#include "src/util/doorbell.h"
#include "src/util/time_types.h"

namespace snap {

class LiveScheduler {
 public:
  struct Options {
    SchedulingMode mode = SchedulingMode::kDedicatedCores;
    // Dedicated mode: worker count (0 = one per executor). Fewer workers
    // than executors round-robins executors over them (the paper's
    // fair-shared dedicated variant).
    int dedicated_workers = 0;
    // Compacting mode.
    int max_workers = 4;
    int64_t compacting_slo_ns = 40'000;       // scale-out threshold
    int64_t rebalance_interval_ns = 200'000;  // rebalancer tick
    // Worker idle behavior: busy-poll this long after the last productive
    // pass, then park (spreading mode forces 0 = park immediately).
    int64_t spin_before_park_ns = 50'000;
    // Longest single park of a worker that owns executors: bounds
    // staleness for event sources that cannot ring its doorbell (a UDP
    // peer in another process). A worker with no executors parks until
    // rung (an arrival or Stop()).
    int64_t max_park_ns = 100'000;
  };

  // What the rebalancer did and why (engine = executor index) — exact
  // post-stop, for tests and docs-grade telemetry.
  using Decision = CompactingPolicy<int>::Move;

  struct WorkerStats {
    int64_t passes = 0;
    int64_t work_items = 0;
    int64_t busy_ns = 0;
    int64_t park_ns = 0;
    int64_t parks = 0;
    int64_t migrations_in = 0;
    // passes_by_exec[e]: passes this worker ran executor e — the
    // engine<->core placement signal the per-mode e2e tests assert on.
    std::vector<int64_t> passes_by_exec;
  };

  LiveScheduler(int64_t epoch_ns, Options options);
  ~LiveScheduler();

  // Setup phase (before Start): registers an executor. Returns its index.
  int AddExecutor(LiveExecutor* executor);

  // Arms per-worker flight recorders (setup phase). Worker w records on
  // track base_tid (they are merged with stride later).
  void EnableTracing();

  // Periodically writes ProfileJson() to `path` (atomic tmp+rename) every
  // `interval_ms` while running — the snaptop.py --live-profile feed.
  void EnableProfileDump(const std::string& path, int interval_ms);

  void Start();
  void Stop();  // idempotent
  bool running() const { return started_ && !stopped_; }

  int num_workers() const { return static_cast<int>(workers_.size()); }
  const Options& options() const { return options_; }

  // Live view of the scheduler: mode, per-worker busy/park split,
  // executor placement, migration count. Callable while running (relaxed
  // reads; exact after Stop()).
  std::string ProfileJson() const;

  // Post-stop exact reads.
  WorkerStats GetWorkerStats(int worker) const;
  const std::vector<Decision>& decisions() const { return decisions_; }
  int64_t migrations() const {
    return migrations_.load(std::memory_order_relaxed);
  }
  // Per-worker tracers (post-stop; empty when tracing was not enabled).
  std::vector<const TraceRecorder*> WorkerTracers() const;

 private:
  struct Move {
    LiveExecutor* exec;
    int exec_index;
    int to_worker;
  };
  struct Arrival {
    LiveExecutor* exec;
    int exec_index;
  };
  struct Worker {
    int index = 0;
    std::thread thread;
    Doorbell doorbell;

    // Mailbox: rebalancer/local workers push, owner drains under mu.
    std::mutex mu;
    std::vector<Arrival> incoming;
    std::vector<Move> moves;
    std::atomic<bool> commands_pending{false};

    // Owner-thread-only running set (parallel exec-index vector).
    std::vector<LiveExecutor*> local;
    std::vector<int> local_index;

    std::unique_ptr<TraceRecorder> tracer;

    std::atomic<int64_t> passes{0};
    std::atomic<int64_t> work_items{0};
    std::atomic<int64_t> busy_ns{0};
    std::atomic<int64_t> park_ns{0};
    std::atomic<int64_t> parks{0};
    std::atomic<int64_t> migrations_in{0};
    std::vector<std::unique_ptr<std::atomic<int64_t>>> passes_by_exec;
  };

  void WorkerLoop(Worker* w);
  void DrainMailbox(Worker* w);
  void ControlLoop();
  void RequestMove(const Decision& decision);
  int InitialWorkerFor(int exec_index) const;

  Options options_;
  int64_t epoch_ns_;
  std::vector<LiveExecutor*> executors_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // owner_[e]: worker currently running executor e (written by the worker
  // that receives it); placement_[w]: the executors the rebalancer last
  // sent to worker w (rebalancer/setup only). An executor whose owner is
  // not its placement has a move in flight.
  std::vector<std::unique_ptr<std::atomic<int>>> owner_;
  std::vector<std::vector<int>> placement_;
  CompactingPolicy<int> policy_;

  std::thread control_thread_;
  Doorbell control_doorbell_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool stopped_ = false;
  bool tracing_ = false;

  std::string profile_path_;
  int profile_interval_ms_ = 0;

  std::vector<Decision> decisions_;  // rebalancer-only writer
  std::atomic<int64_t> migrations_{0};
};

}  // namespace snap

#endif  // SRC_LIVE_LIVE_SCHEDULER_H_
