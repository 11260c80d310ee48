#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"

namespace snap {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(300, [&] { order.push_back(3); });
  sim.Schedule(100, [&] { order.push_back(1); });
  sim.Schedule(200, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(EventQueueTest, FifoForEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(50, [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, CallbackSeesItsOwnScheduledTime) {
  Simulator sim;
  SimTime observed = -1;
  sim.Schedule(500, [&] { observed = sim.now(); });
  sim.RunAll();
  EXPECT_EQ(observed, 500);
}

TEST(EventQueueTest, NestedSchedulingUsesCurrentTime) {
  // An event scheduling a relative delay must be relative to ITS time,
  // not the time RunUntil started (regression test for the clock-advance
  // ordering bug).
  Simulator sim;
  SimTime second_fire = -1;
  sim.Schedule(100, [&] {
    sim.Schedule(50, [&] { second_fire = sim.now(); });
  });
  sim.Schedule(1000, [] {});
  sim.RunAll();
  EXPECT_EQ(second_fire, 150);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventHandle handle = sim.Schedule(100, [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  handle.Cancel();
  EXPECT_FALSE(handle.pending());
  sim.RunAll();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  int runs = 0;
  EventHandle handle = sim.Schedule(10, [&] { ++runs; });
  sim.RunAll();
  EXPECT_EQ(runs, 1);
  handle.Cancel();  // after fire: no-op
  handle.Cancel();
  EXPECT_EQ(runs, 1);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(100, [&] { ++fired; });
  sim.Schedule(200, [&] { ++fired; });
  sim.Schedule(201, [&] { ++fired; });
  sim.RunUntil(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 200);
  sim.RunUntil(300);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 300);
}

TEST(SimulatorTest, RunForAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.RunFor(12345);
  EXPECT_EQ(sim.now(), 12345);
}

TEST(SimulatorTest, PeriodicSelfRescheduling) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 10) {
      sim.Schedule(1000, tick);
    }
  };
  sim.Schedule(1000, tick);
  sim.RunUntil(100000);
  EXPECT_EQ(ticks, 10);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim(99);
    std::vector<uint64_t> trace;
    for (int i = 0; i < 100; ++i) {
      SimDuration d = static_cast<SimDuration>(sim.rng().NextBounded(1000));
      sim.Schedule(d, [&trace, &sim] { trace.push_back(
          static_cast<uint64_t>(sim.now())); });
    }
    sim.RunAll();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(EventQueueTest, HeavyChurnCancelAndMove) {
  // Slab/generation bookkeeping under churn: schedule, cancel, and "move"
  // (cancel + reschedule) thousands of events with a seeded RNG, checking
  // that exactly the surviving events fire, in time order.
  Simulator sim(1234);
  Rng rng(42);
  std::vector<EventHandle> handles;
  std::vector<SimTime> expected;  // times of events that must fire
  std::vector<SimTime> fired;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 100; ++i) {
      SimTime when = sim.now() + 1 +
                     static_cast<SimDuration>(rng.NextBounded(500 * 1000));
      handles.push_back(
          sim.ScheduleAt(when, [&fired, &sim] { fired.push_back(sim.now()); }));
      expected.push_back(when);
    }
    // Cancel a third, move (cancel + reschedule) another third.
    for (size_t i = handles.size() - 100; i < handles.size(); ++i) {
      uint64_t coin = rng.NextBounded(3);
      if (coin == 0) {
        handles[i].Cancel();
        handles[i].Cancel();  // idempotent
        expected[i] = -1;
      } else if (coin == 1) {
        handles[i].Cancel();
        SimTime when = sim.now() + 1 +
                       static_cast<SimDuration>(rng.NextBounded(500 * 1000));
        handles[i] = sim.ScheduleAt(
            when, [&fired, &sim] { fired.push_back(sim.now()); });
        expected[i] = when;
      }
    }
    sim.RunFor(10 * kUsec);  // interleave execution with churn
  }
  sim.RunAll();

  std::vector<SimTime> want;
  for (SimTime t : expected) {
    if (t >= 0) {
      want.push_back(t);
    }
  }
  std::sort(want.begin(), want.end());
  ASSERT_EQ(fired.size(), want.size());
  std::vector<SimTime> got = fired;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
  // Events must have fired in nondecreasing time order as executed.
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(EventQueueTest, StaleHandleAfterSlotReuseIsInert) {
  // After an event fires, its slab slot may be reused by a new event; the
  // old handle must neither cancel nor report the new occupant as pending.
  Simulator sim(1);
  bool first_ran = false;
  EventHandle stale = sim.Schedule(10, [&] { first_ran = true; });
  sim.RunFor(100);
  ASSERT_TRUE(first_ran);
  EXPECT_FALSE(stale.pending());

  // The wheel reuses the freed slot for the next record.
  bool second_ran = false;
  sim.Schedule(10, [&] { second_ran = true; });
  stale.Cancel();  // must not touch the new event
  sim.RunAll();
  EXPECT_TRUE(second_ran);
}

TEST(EventQueueTest, CancelledHeadDoesNotStallNextEventTime) {
  // RunUntil(t) must not execute an event scheduled after t just because a
  // cancelled event tops the queue (NextEventTime must skip it).
  Simulator sim(1);
  bool late_ran = false;
  EventHandle early = sim.Schedule(100, [] {});
  sim.Schedule(1000, [&] { late_ran = true; });
  early.Cancel();
  sim.RunUntil(500);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.now(), 500);
  sim.RunAll();
  EXPECT_TRUE(late_ran);
}

TEST(EventQueueTest, FarWheelAndOverflowHorizons) {
  // Cover every filing tier: same 16us block (near), within ~4.2ms (far),
  // and beyond (overflow heap), plus re-scheduling into the past-most tier
  // as the clock advances across block boundaries.
  Simulator sim(1);
  std::vector<int> order;
  sim.Schedule(3 * kUsec, [&] { order.push_back(0); });        // near
  sim.Schedule(1 * kMsec, [&] { order.push_back(1); });        // far
  sim.Schedule(100 * kMsec, [&] { order.push_back(2); });      // overflow
  sim.Schedule(2 * kSec, [&] { order.push_back(3); });         // deep overflow
  // Cascade stress: as each fires, schedule short follow-ups that land in
  // the (rebased) near wheel.
  sim.Schedule(1 * kMsec + 1, [&] { order.push_back(4); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 4, 2, 3}));
  EXPECT_EQ(sim.now(), 2 * kSec);
}

TEST(EventQueueTest, EqualTimeFifoAcrossBlockBoundary) {
  // Events scheduled at the exact same instant from different "eras" of
  // the wheel (before and after block advances) must still fire FIFO.
  Simulator sim(1);
  std::vector<int> order;
  const SimTime t = 10 * kMsec;  // lives in far wheel when first scheduled
  sim.Schedule(t, [&] { order.push_back(0); });
  sim.Schedule(5 * kMsec, [&] {
    sim.ScheduleAt(t, [&] { order.push_back(1); });  // scheduled later: after
  });
  sim.Schedule(t, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(EventQueueTest, MoveOnlyCaptureIsSupported) {
  // EventCallback (unlike std::function) must hold move-only captures.
  Simulator sim(1);
  auto payload = std::make_unique<int>(41);
  int result = 0;
  sim.Schedule(5, [&result, p = std::move(payload)] { result = *p + 1; });
  sim.RunAll();
  EXPECT_EQ(result, 42);
}

TEST(EventQueueTest, FireOrderMatchesTimeThenScheduleOrderSpec) {
  // Spec oracle: a randomized schedule/cancel workload must execute
  // exactly the surviving events, ordered by (time, schedule order).
  // Times come from coarse per-tier grids so that equal-time ties are
  // common in the near wheel, the far wheel and the overflow heap; some
  // callbacks schedule a follow-up, so ties also span wheel eras.
  Simulator sim(7);
  Rng rng(7);
  std::vector<std::pair<SimTime, int>> trace;
  std::vector<std::pair<SimTime, int>> spec;
  std::vector<EventHandle> handles;
  int next_seq = 0;
  auto grid_delay = [&rng]() -> SimDuration {
    const auto step = static_cast<SimDuration>(rng.NextBounded(40));
    switch (rng.NextBounded(3)) {
      case 0:
        return step * 256;  // near wheel: under one 16 us block
      case 1:
        return step * 100 * kUsec;  // far wheel: under ~4.2 ms
      default:
        return 5 * kMsec + step * kMsec;  // overflow heap
    }
  };
  std::function<void(int)> fire = [&](int seq) {
    trace.emplace_back(sim.now(), seq);
    if (seq % 7 == 0) {
      const SimDuration delay = grid_delay();
      const int child = next_seq++;
      spec.emplace_back(sim.now() + delay, child);
      sim.Schedule(delay, [&fire, child] { fire(child); });
    }
  };
  for (int i = 0; i < 2000; ++i) {
    const SimTime when = grid_delay();
    const int seq = next_seq++;
    handles.push_back(sim.ScheduleAt(when, [&fire, seq] { fire(seq); }));
    if (seq % 5 != 0) {
      spec.emplace_back(when, seq);
    }
  }
  for (int i = 0; i < 2000; i += 5) {
    handles[i].Cancel();
  }
  sim.RunAll();
  std::sort(spec.begin(), spec.end());
  EXPECT_EQ(trace, spec);
  // The tie-break must actually be exercised.
  int ties = 0;
  for (size_t i = 1; i < spec.size(); ++i) {
    ties += spec[i].first == spec[i - 1].first ? 1 : 0;
  }
  EXPECT_GT(ties, 1000);
}

TEST(EventQueueStatsTest, WheelCountersTrackTiersAndCancels) {
  Simulator sim(1);
  sim.Schedule(1 * kUsec, [] {});            // near
  sim.Schedule(1 * kMsec, [] {});            // far
  sim.Schedule(1 * kSec, [] {});             // overflow
  EventHandle h = sim.Schedule(2 * kUsec, [] {});
  h.Cancel();
  sim.RunAll();
  const EventQueueStats& s = sim.event_queue().stats();
  EXPECT_EQ(s.scheduled, 4);
  EXPECT_EQ(s.fired, 3);
  EXPECT_EQ(s.cancelled, 1);
  EXPECT_GE(s.near_inserts, 2);
  EXPECT_GE(s.far_inserts, 1);
  EXPECT_GE(s.overflow_inserts, 1);
  EXPECT_GE(s.block_jumps, 2);
  EXPECT_EQ(s.callback_heap_allocs, 0);  // all captures fit inline
}

}  // namespace
}  // namespace snap
