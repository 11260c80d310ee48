// The execution-substrate interface: the minimal contract engines, NICs
// and QoS elements need from whatever is running them — a clock, deferred
// work (timers), telemetry, and an optional flight recorder.
//
// Two implementations exist:
//  - Simulator (src/sim/simulator.h): discrete-event time; the clock
//    advances event by event and every run is bit-identical per seed.
//  - LiveExecutor (src/live/live_executor.h): a host's engines run by a
//    LiveScheduler worker thread; the clock is CLOCK_MONOTONIC
//    nanoseconds since runtime start and timers fire from the worker's
//    poll loop.
//
// The split keeps the dataplane substrate-agnostic ("one codebase,
// simulated and real", ROADMAP item 2): PonyEngine, RxQueue/Nic, the
// engine-group schedulers and the shaping/virtual-switch elements hold a
// Substrate* and cannot tell which world they run in.
//
// Hot-path contract: now() is a relaxed atomic load (a plain load on
// x86) so application threads may read the clock concurrently with the
// engine thread advancing it; only ScheduleAt is virtual, and Simulator
// is `final` so sim-side calls through a concrete Simulator* devirtualize.
// Timer callbacks always run on the substrate's execution thread.
#ifndef SRC_SIM_SUBSTRATE_H_
#define SRC_SIM_SUBSTRATE_H_

#include <atomic>
#include <cstdint>
#include <utility>

#include "src/sim/event_queue.h"
#include "src/stats/telemetry.h"
#include "src/stats/trace.h"
#include "src/util/logging.h"
#include "src/util/time_types.h"

namespace snap {

class Substrate {
 public:
  virtual ~Substrate() = default;

  Substrate(const Substrate&) = delete;
  Substrate& operator=(const Substrate&) = delete;

  // Current time in nanoseconds: simulated time since simulation start, or
  // monotonic wall-clock time since runtime start. Safe to call from any
  // thread (applications poll the clock while the engine thread runs).
  SimTime now() const { return now_.load(std::memory_order_relaxed); }

  // The seed this substrate was constructed with. Components that need
  // per-object deterministic randomness independent of global draw order
  // (e.g. the fabric's hashed packet drop) key their hashes off this.
  uint64_t seed() const { return seed_; }

  // Schedules `cb` to run at absolute time `when` on the substrate's
  // execution thread. Callers must be on that thread (or, before the
  // substrate starts running, the setup thread). Implementations may clamp
  // `when` to the current time but never run the callback synchronously.
  virtual EventHandle ScheduleAt(SimTime when, EventQueue::Callback cb) = 0;

  // Schedules `cb` to run `delay` from now (delay >= 0).
  EventHandle Schedule(SimDuration delay, EventQueue::Callback cb) {
    SNAP_CHECK_GE(delay, 0);
    return ScheduleAt(now() + delay, std::move(cb));
  }

  // Unified metric registry shared by every component on this substrate.
  Telemetry& telemetry() { return telemetry_; }
  const Telemetry& telemetry() const { return telemetry_; }

  // Flight recorder; nullptr (the default) disables tracing. Recording is
  // pure observation: attaching a recorder never changes results. The
  // recorder must outlive its attachment. Live substrates record
  // wall-clock (monotonic, runtime-epoch) timestamps.
  TraceRecorder* tracer() const { return tracer_; }
  void set_tracer(TraceRecorder* tracer) { tracer_ = tracer; }

  // Hands out contiguous trace-track (tid) ranges so cores of different
  // hosts land on distinct tracks in multi-host runs. Allocation order is
  // construction order, hence deterministic.
  int AllocateTraceTracks(int count) {
    int base = next_trace_track_;
    next_trace_track_ += count;
    return base;
  }

 protected:
  explicit Substrate(uint64_t seed) : seed_(seed) {}

  // Advances the clock. Only the substrate's execution thread stores.
  void set_now(SimTime t) { now_.store(t, std::memory_order_relaxed); }

 private:
  std::atomic<SimTime> now_{0};
  uint64_t seed_;
  Telemetry telemetry_;
  TraceRecorder* tracer_ = nullptr;
  int next_trace_track_ = 0;
};

}  // namespace snap

#endif  // SRC_SIM_SUBSTRATE_H_
