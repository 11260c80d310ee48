// LiveExecutor: the live implementation of the Substrate interface — the
// per-host bundle of engines + timers + poll hook that some OS thread
// runs for real.
//
// The executor has no thread of its own: a LiveScheduler
// (src/live/live_scheduler.h) worker calls RunPass() and redirects the
// executor's wake target to the worker's doorbell, so one worker can host
// many executors (spreading/compacting modes) and executors can migrate
// between workers at pass boundaries. The idle policy (spin window, park
// bound) lives in LiveScheduler::Options.
//
// The clock is CLOCK_MONOTONIC nanoseconds since a shared runtime epoch,
// so SimTime values stay small, comparable across the executors of one
// LiveRuntime, and directly usable as trace timestamps.
//
// Threading contract:
//  - Engines, the NIC, and all timers belong to whichever thread runs
//    RunPass(); exactly one thread may do so at a time, and handoffs
//    between threads must happen-before (the scheduler's migration lists
//    provide this). AddEngine / SetPollHook / SetPassEndHook are
//    setup-thread-only.
//    While running, ScheduleAt may only be called from the running thread
//    (engines re-arming their own wake timers).
//  - Wake() is callable from any thread — it is the doorbell the SPSC
//    rings ring: application submit, loopback push, UDP peer.
//  - now() (Substrate), busy_ns(), queue_delay_ns() are relaxed atomic
//    reads, callable from any thread (the compacting rebalancer samples
//    the last two as its load signal).
//
// Timers reuse the simulator's EventQueue/EventHandle machinery
// unchanged. One live-only difference: a deadline already in the past is
// clamped to "now" instead of CHECK-failing — wall clocks advance between
// computing a deadline and scheduling it, so late deadlines are normal
// here and simply fire on the next loop iteration.
#ifndef SRC_LIVE_LIVE_EXECUTOR_H_
#define SRC_LIVE_LIVE_EXECUTOR_H_

#include <atomic>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/substrate.h"
#include "src/snap/engine.h"
#include "src/util/doorbell.h"
#include "src/util/time_types.h"

namespace snap {

// Nanoseconds on the monotonic clock (the live time base).
int64_t MonotonicTimeNs();

class LiveExecutor final : public Substrate {
 public:
  struct Options {
    std::string name = "live";
    // Per-engine budget handed to Engine::Poll each pass.
    SimDuration poll_budget = 100 * kUsec;
  };

  // `epoch_ns` is the monotonic-clock origin of this executor's timeline;
  // every executor of a runtime shares one epoch so their clocks agree.
  LiveExecutor(uint64_t seed, int64_t epoch_ns, Options options);

  // --- Setup (while not running) ---
  void AddEngine(Engine* engine);
  // Runs once per loop iteration, before engine polls; returns the number
  // of work items it produced (fabric drains deliver inbound packets
  // here). At most one hook.
  void SetPollHook(std::function<int()> hook);
  // Runs once at the end of every pass, after the engine polls: the UDP
  // fabric flushes the frames the pass batched. At most one hook.
  void SetPassEndHook(std::function<void()> hook);

  // --- Substrate ---
  EventHandle ScheduleAt(SimTime when, EventQueue::Callback cb) override;

  // True between the scheduler's Start() and Stop().
  bool running() const { return running_.load(std::memory_order_acquire); }

  // --- Scheduler interface (src/live/live_scheduler.h) ---
  // One full pass: advance the clock, run due timers, the poll hook, each
  // engine's mailbox + Poll, the pass-end hook, and the self-paced
  // telemetry sample. Returns the number of work items. Caller must be
  // the (single) owning thread.
  int RunPass();
  // Nanoseconds until the next pending timer, from a FRESH clock read
  // (never the stale pass-top time — a park bound computed from stale
  // "now" oversleeps deadlines by up to one pass). -1 when no timer is
  // pending. Owning thread only (may cascade the timer wheel).
  int64_t NextTimerDelayNs();
  // Redirects Wake() to `target` (a scheduler worker's doorbell); nullptr
  // restores the executor's own bell. Any thread; takes effect on the
  // next Wake(). A wake already in flight to the old target is covered by
  // the new owner's bounded park.
  void SetWakeTarget(Doorbell* target);
  // Scheduler bookkeeping for the setup/running-phase asserts
  // (CreateClient and friends).
  void MarkRunning(bool running);

  // Thread-safe doorbell: wakes whichever thread currently runs this
  // executor. Cheap when it is already running (two uncontended atomics).
  void Wake();

  const std::string& name() const { return options_.name; }

  // --- Load signals (any thread, relaxed) ---
  // Wall-clock ns spent in productive passes (work > 0) since start. The
  // compacting scheduler's busy signal, in the mold of the PR 8 shard
  // profiler's busy/wait split.
  int64_t busy_ns() const {
    return busy_ns_.load(std::memory_order_relaxed);
  }
  // Max engine queueing delay observed by the latest pass — the paper's
  // Shenango-style compacting-SLO input.
  int64_t queue_delay_ns() const {
    return queue_delay_ns_.load(std::memory_order_relaxed);
  }

  struct Stats {
    int64_t loop_iterations = 0;
    int64_t work_items = 0;   // engine + hook + timer work
    int64_t timer_fires = 0;
    int64_t wakes = 0;        // cross-thread Wake() calls
    int64_t busy_ns = 0;      // wall clock inside productive passes
  };
  // Loop counters are written by the running thread only; read them after
  // the scheduler's Stop() for exact values (mid-run reads are
  // tearing-free but stale).
  Stats GetStats() const;

 private:
  int RunDueTimers(SimTime now);

  Options options_;
  int64_t epoch_ns_;
  EventQueue events_;
  std::vector<Engine*> engines_;
  std::function<int()> poll_hook_;
  std::function<void()> pass_end_hook_;

  std::atomic<bool> running_{false};
  // Wake() target while no scheduler worker runs the executor.
  Doorbell doorbell_;

  // Wake() state is written by any thread: keep it off the line of the
  // per-pass counters below (sharing one line measured ~5% on the UDP
  // ping-pong p50 RTT, 4 vCPUs).
  alignas(64) std::atomic<Doorbell*> wake_target_{&doorbell_};
  std::atomic<int64_t> wakes_{0};
  // Written by the running thread every pass.
  alignas(64) std::atomic<int64_t> loop_iterations_{0};
  std::atomic<int64_t> work_items_{0};
  std::atomic<int64_t> timer_fires_{0};
  std::atomic<int64_t> busy_ns_{0};
  std::atomic<int64_t> queue_delay_ns_{0};
};

}  // namespace snap

#endif  // SRC_LIVE_LIVE_EXECUTOR_H_
