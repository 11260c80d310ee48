// The global discrete-event simulator: a clock plus an event queue.
// Every run with the same seed is bit-identical; there is no wall-clock
// dependence anywhere in the simulation. This is the deterministic
// implementation of the Substrate interface (src/sim/substrate.h); the
// live substrate (src/live/) runs the same engines on real threads.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <functional>
#include <utility>

#include "src/sim/event_queue.h"
#include "src/sim/substrate.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/time_types.h"

namespace snap {

// `final` so calls through a concrete Simulator* devirtualize: the sim hot
// path pays nothing for the substrate split.
class Simulator final : public Substrate {
 public:
  explicit Simulator(uint64_t seed = 1) : Substrate(seed), rng_(seed) {}

  Rng& rng() { return rng_; }

  EventHandle ScheduleAt(SimTime when, EventQueue::Callback cb) override {
    SNAP_CHECK_GE(when, now());
    return events_.ScheduleAt(when, std::move(cb));
  }

  // Runs events until the queue is empty or the clock passes `until`.
  // The clock ends at min(until, last event time). Events exactly at
  // `until` do run. The clock advances before each callback runs, so
  // callbacks always observe now() == their scheduled time.
  void RunUntil(SimTime until) {
    SimTime when = 0;
    EventQueue::Callback cb;
    while (!events_.empty() && events_.NextEventTime() <= until) {
      if (!events_.PopNext(&when, &cb)) {
        break;
      }
      SNAP_CHECK_GE(when, now());
      set_now(when);
      cb();
    }
    if (now() < until) {
      set_now(until);
    }
  }

  // Runs `duration` more simulated time.
  void RunFor(SimDuration duration) { RunUntil(now() + duration); }

  // Runs all pending events (caller must guarantee termination).
  void RunAll() {
    SimTime when = 0;
    EventQueue::Callback cb;
    while (events_.PopNext(&when, &cb)) {
      SNAP_CHECK_GE(when, now());
      set_now(when);
      cb();
    }
  }

  size_t pending_events() const { return events_.size(); }

  // Earliest pending event time (kSimTimeNever when idle). Non-const
  // because the timer-wheel backend may cascade buckets to answer.
  SimTime NextEventTime() { return events_.NextEventTime(); }

  // The backing event queue (stats, implementation kind).
  const EventQueue& event_queue() const { return events_; }

 private:
  EventQueue events_;
  Rng rng_;
};

}  // namespace snap

#endif  // SRC_SIM_SIMULATOR_H_
