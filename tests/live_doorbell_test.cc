// Doorbell (src/util/doorbell.h) tests: the Dekker park/wake handshake
// behind every live-mode blocking path — scheduler-worker parking and the
// application completion-notify doorbell.
//
// The lost-wakeup audit, as a test: a ring that lands between the
// waiter's "is there work?" check and its park must not be missed. The
// stress tests run with park timeouts far longer than the test deadline
// budget allows per item, so a single lost wakeup shows up as a stall
// (deadline blowout), not as noise. Run these under TSan (the live;tsan
// label) to also pin the seq_cst ordering the handshake depends on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/live/live_executor.h"
#include "src/live/live_scheduler.h"
#include "src/util/doorbell.h"

namespace snap {
namespace {

constexpr int64_t kTestDeadlineNs = 20LL * 1000 * 1000 * 1000;  // 20 s

TEST(DoorbellTest, RingWithNoWaiterLatchesUntilConsumed) {
  Doorbell bell;
  EXPECT_FALSE(bell.pending());
  EXPECT_FALSE(bell.Consume());
  bell.Ring();
  bell.Ring();  // edge-triggered: a second ring folds into the latch
  EXPECT_TRUE(bell.pending());
  EXPECT_TRUE(bell.Consume());
  EXPECT_FALSE(bell.pending());
  EXPECT_FALSE(bell.Consume());
  EXPECT_EQ(bell.rings(), 2);
}

TEST(DoorbellTest, WaitForTimesOutWhenNeverRung) {
  Doorbell bell;
  int64_t t0 = MonotonicTimeNs();
  EXPECT_FALSE(bell.WaitFor(2'000'000));  // 2 ms
  int64_t elapsed = MonotonicTimeNs() - t0;
  EXPECT_GE(elapsed, 1'000'000);  // actually slept (>= 1 ms)
  EXPECT_EQ(bell.waits(), 1);
}

TEST(DoorbellTest, WaitForReturnsImmediatelyWhenAlreadyRungAndDoesNotConsume) {
  Doorbell bell;
  bell.Ring();
  int64_t t0 = MonotonicTimeNs();
  EXPECT_TRUE(bell.WaitFor(5'000'000'000));  // would be 5 s if it slept
  EXPECT_LT(MonotonicTimeNs() - t0, 1'000'000'000);
  // WaitFor reports the latch but leaves consumption to the loop-top
  // Consume().
  EXPECT_TRUE(bell.pending());
  EXPECT_TRUE(bell.Consume());
}

TEST(DoorbellTest, RingWakesParkedWaiterPromptly) {
  Doorbell bell;
  std::atomic<int64_t> woke_at{0};
  std::thread waiter([&] {
    // Park far longer than the ringer's delay: returning early proves the
    // notify landed, not the timeout.
    bell.WaitFor(10'000'000'000);
    woke_at.store(MonotonicTimeNs(), std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  int64_t rang_at = MonotonicTimeNs();
  bell.Ring();
  waiter.join();
  EXPECT_TRUE(bell.Consume());
  // Woke within a second of the ring, not after the 10 s timeout.
  EXPECT_LT(woke_at.load(std::memory_order_acquire) - rang_at,
            1'000'000'000);
}

// The lost-wakeup stress: multiple producers publish work (an atomic
// counter) and ring; one consumer parks with a 50 ms timeout whenever a
// pass finds nothing. If any ring between the consumer's check and its
// park were lost, the consumer would stall 50 ms per loss and miss the
// deadline. Producers yield and sleep to scatter rings across every phase
// of the waiter's park/wake cycle.
TEST(DoorbellStressTest, NoLostWakeupsWithManyRingers) {
  constexpr int kProducers = 4;
  constexpr int64_t kItemsPerProducer = 5000;
  constexpr int64_t kTotal = kProducers * kItemsPerProducer;
  Doorbell bell;
  std::atomic<int64_t> produced{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int64_t i = 0; i < kItemsPerProducer; ++i) {
        produced.fetch_add(1, std::memory_order_release);
        bell.Ring();
        if (i % 64 == p) {
          std::this_thread::yield();
        }
        if (i % 1024 == 0) {
          // Let the consumer drain and actually park.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }

  int64_t consumed = 0;
  int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
  while (consumed < kTotal && MonotonicTimeNs() < deadline) {
    bell.Consume();  // loop-top: rings after this point trigger a re-pass
    int64_t available = produced.load(std::memory_order_acquire);
    if (available > consumed) {
      consumed = available;
      continue;
    }
    bell.WaitFor(50'000'000);  // 50 ms: a lost wakeup costs a full park
  }
  for (std::thread& t : producers) {
    t.join();
  }
  consumed = produced.load(std::memory_order_acquire);

  EXPECT_EQ(consumed, kTotal) << "consumer stalled: lost wakeup";
  EXPECT_EQ(bell.rings(), kTotal);
}

// Same audit one layer up: a scheduler worker running one executor parks
// on its doorbell (spreading mode = park immediately, max park 1 s) while
// a producer publishes work through the poll hook and rings the
// executor's Wake(). A lost wakeup would stall the worker up to a second
// per loss; 20k items with scattered producer sleeps must still finish
// well inside the deadline.
TEST(DoorbellStressTest, ExecutorParkWakeUnderProducerChurn) {
  constexpr int64_t kItems = 20'000;
  const int64_t epoch = MonotonicTimeNs();
  LiveExecutor::Options options;
  options.name = "park-stress";
  LiveExecutor exec(/*seed=*/1, epoch, options);
  LiveScheduler::Options sched_options;
  sched_options.mode = SchedulingMode::kSpreadingEngines;  // max pressure
  sched_options.max_park_ns = 1'000'000'000;  // 1 s: parks must be woken
  LiveScheduler sched(epoch, sched_options);
  sched.AddExecutor(&exec);

  std::atomic<int64_t> produced{0};
  std::atomic<int64_t> consumed{0};
  exec.SetPollHook([&] {
    int64_t available = produced.load(std::memory_order_acquire);
    int64_t done = consumed.load(std::memory_order_relaxed);
    int64_t batch = available - done;
    consumed.store(available, std::memory_order_release);
    return static_cast<int>(batch);
  });
  sched.Start();

  std::thread producer([&] {
    for (int64_t i = 0; i < kItems; ++i) {
      produced.fetch_add(1, std::memory_order_release);
      exec.Wake();
      if (i % 257 == 0) {
        // Outlast the (zero) spin window so the worker really parks.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  });
  producer.join();

  int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
  while (consumed.load(std::memory_order_acquire) < kItems &&
         MonotonicTimeNs() < deadline) {
    std::this_thread::yield();
  }
  sched.Stop();

  EXPECT_EQ(consumed.load(std::memory_order_acquire), kItems)
      << "executor stalled: lost wakeup";
  LiveExecutor::Stats stats = exec.GetStats();
  EXPECT_GE(stats.work_items, kItems);
  EXPECT_GT(sched.GetWorkerStats(0).parks, 0)
      << "stress never exercised the park path";
  EXPECT_GT(stats.wakes, 0);
}

}  // namespace
}  // namespace snap
