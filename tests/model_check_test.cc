// Deterministic model checking of the lock-free queue primitives
// (src/verify/). Each test enumerates every interleaving (within the
// preemption bound) of small producer/consumer programs against the real
// queue templates instantiated with verify::ModelAtomics, checking the
// queues' core claims: no lost or duplicated elements, FIFO order,
// no out-of-thin-air reads (a load can only observe a value some store
// actually wrote), and safe slot and segment reuse across wraparound.
//
// Deliberately broken queue variants (a missing release on the publish
// store or on the segment hand-back, a missing acquire on the index
// refresh) prove the checker finds seeded ordering bugs and emits a
// replayable counterexample schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/queue/mailbox.h"
#include "src/queue/spsc_ring.h"
#include "src/verify/model.h"
#include "src/verify/model_atomic.h"

namespace snap {
namespace {

using verify::Explore;
using verify::JoinAll;
using verify::ModelAssert;
using verify::Options;
using verify::Result;
using verify::Spawn;
using verify::Yield;

using ModelRing = SpscRing<int, verify::ModelAtomics>;
using ModelMailbox = BasicEngineMailbox<verify::ModelAtomics>;

void ReportSchedules(const char* what, const Result& r) {
  std::printf("[ model ] %s: explored %ld schedules%s\n", what, r.schedules,
              r.exhausted ? " (exhausted)" : "");
  ::testing::Test::RecordProperty(what, static_cast<int>(r.schedules));
}

// --- SpscRing: correctness under all interleavings ------------------------

TEST(ModelSpscRingTest, NoLossNoDupFifoAcrossWraparound) {
  Options opts;
  opts.max_preemptions = 2;
  Result r = Explore(opts, [] {
    // Capacity 2, three values: the third push reuses slot 0, so every
    // schedule crosses the wraparound boundary.
    ModelRing ring(2);
    std::vector<int> popped;
    int pushed = 0;
    Spawn([&] {
      for (int v = 0; v < 3; ++v) {
        int attempts = 0;
        while (!ring.TryPush(v)) {
          // Bounded retry keeps the DFS finite; two attempts still cover
          // the observe-stale-head-then-refresh path.
          if (++attempts > 2) return;
          Yield();
        }
        ++pushed;
      }
    });
    Spawn([&] {
      int empty_polls = 0;
      while (static_cast<int>(popped.size()) < 3 && empty_polls < 4) {
        std::optional<int> v = ring.TryPop();
        if (v.has_value()) {
          popped.push_back(*v);
        } else {
          ++empty_polls;
          Yield();
        }
      }
    });
    JoinAll();
    // Drain what the consumer gave up on; JoinAll establishes the
    // happens-before edge that makes this safe.
    while (std::optional<int> v = ring.TryPop()) {
      popped.push_back(*v);
    }
    // No loss, no duplication, and FIFO: exactly the pushed prefix, in
    // order. Values can only come from actual pushes (no out-of-thin-air
    // reads), so popped[i] == i is the full check.
    ModelAssert(static_cast<int>(popped.size()) == pushed,
                "popped count != pushed count (lost or duplicated element)");
    for (size_t i = 0; i < popped.size(); ++i) {
      ModelAssert(popped[i] == static_cast<int>(i),
                  "FIFO order violated or out-of-thin-air value");
    }
  });
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_TRUE(r.exhausted) << "exploration hit a safety cap";
  EXPECT_GT(r.schedules, 100) << "suspiciously small schedule space";
  ReportSchedules("spsc_wraparound", r);
}

TEST(ModelSpscRingTest, CapacityOneRingAlternatesSafely) {
  // A one-slot ring maximally stresses the cached_head_/cached_tail_
  // staleness paths: every push after the first must observe the
  // consumer's head release, every pop must observe the tail release.
  Options opts;
  opts.max_preemptions = 2;
  Result r = Explore(opts, [] {
    ModelRing ring(1);
    std::vector<int> popped;
    int pushed = 0;
    Spawn([&] {
      for (int v = 0; v < 2; ++v) {
        int attempts = 0;
        while (!ring.TryPush(v)) {
          if (++attempts > 2) return;
          Yield();
        }
        ++pushed;
      }
    });
    Spawn([&] {
      int empty_polls = 0;
      while (static_cast<int>(popped.size()) < 2 && empty_polls < 4) {
        std::optional<int> v = ring.TryPop();
        if (v.has_value()) {
          popped.push_back(*v);
        } else {
          ++empty_polls;
          Yield();
        }
      }
    });
    JoinAll();
    while (std::optional<int> v = ring.TryPop()) {
      popped.push_back(*v);
    }
    ModelAssert(static_cast<int>(popped.size()) == pushed,
                "popped count != pushed count");
    for (size_t i = 0; i < popped.size(); ++i) {
      ModelAssert(popped[i] == static_cast<int>(i), "FIFO order violated");
    }
    ModelAssert(!ring.TryPop().has_value(), "ring not empty after drain");
  });
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_TRUE(r.exhausted);
  ReportSchedules("spsc_capacity_one", r);
}

TEST(ModelSpscRingTest, RecycledSegmentIsReusedSafely) {
  // Capacity 2 gives 2-slot segments: values 0-1 fill the first segment,
  // 2-3 a fresh second one, and value 4 can only go into the first one
  // again, recycled once the consumer has popped value 2 and so read the
  // first segment's link and left it. Values 0-1 pass through before the
  // threads start, which keeps the tree small; every schedule that pushes
  // value 4 writes the recycled segment while the consumer runs.
  Options opts;
  opts.max_preemptions = 2;
  constexpr int kValues = 5;
  long reused = 0;
  Result r = Explore(opts, [&reused] {
    ModelRing ring(2);
    std::vector<int> popped;
    for (int v = 0; v < 2; ++v) {
      ring.TryPush(v);
      popped.push_back(*ring.TryPop());
    }
    int pushed = 2;
    Spawn([&] {
      for (int v = 2; v < kValues; ++v) {
        int attempts = 0;
        while (!ring.TryPush(v)) {
          if (++attempts > 2) return;
          Yield();
        }
        ++pushed;
      }
    });
    Spawn([&] {
      int empty_polls = 0;
      while (static_cast<int>(popped.size()) < kValues && empty_polls < 4) {
        std::optional<int> v = ring.TryPop();
        if (v.has_value()) {
          popped.push_back(*v);
        } else {
          ++empty_polls;
          Yield();
        }
      }
    });
    JoinAll();
    while (std::optional<int> v = ring.TryPop()) {
      popped.push_back(*v);
    }
    ModelAssert(static_cast<int>(popped.size()) == pushed,
                "popped count != pushed count (lost or duplicated element)");
    for (size_t i = 0; i < popped.size(); ++i) {
      ModelAssert(popped[i] == static_cast<int>(i),
                  "FIFO order violated or out-of-thin-air value");
    }
    if (pushed == kValues) ++reused;
  });
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_TRUE(r.exhausted) << "exploration hit a safety cap";
  EXPECT_GT(reused, 100) << "too few schedules reached the recycled segment";
  ReportSchedules("spsc_segment_reuse", r);
  std::printf("[ model ] spsc_segment_reuse: %ld schedules wrote the "
              "recycled segment\n",
              reused);
}

TEST(ModelSpscRingTest, MultiSegmentRingRecyclesOnlyLeftSegments) {
  // Capacity 64 gives two 32-slot segments' worth of capacity, so the
  // capacity check alone does not order a reuse: at index 64 the producer
  // may recycle the first segment with its head knowledge from the
  // crossing's own refresh. Indices 0-63 are pushed and 0-31 popped before
  // the threads start; then the consumer leaves the first segment (pops
  // index 32) while the producer crosses into a third segment (pushes
  // index 64), reusing the first one only if it sees the consumer gone.
  Options opts;
  opts.max_preemptions = 2;
  Result r = Explore(opts, [] {
    ModelRing ring(64);
    for (int v = 0; v < 64; ++v) ring.TryPush(v);
    for (int v = 0; v < 32; ++v) ring.TryPop();
    bool pushed = false;
    std::vector<int> popped;
    Spawn([&] { pushed = ring.TryPush(64); });
    Spawn([&] {
      for (int i = 0; i < 2; ++i) {
        if (std::optional<int> v = ring.TryPop()) popped.push_back(*v);
      }
    });
    JoinAll();
    while (std::optional<int> v = ring.TryPop()) {
      popped.push_back(*v);
    }
    ModelAssert(pushed, "push refused below capacity");
    ModelAssert(popped.size() == 33, "lost or duplicated element");
    for (size_t i = 0; i < popped.size(); ++i) {
      ModelAssert(popped[i] == static_cast<int>(32 + i),
                  "FIFO order violated or out-of-thin-air value");
    }
  });
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_TRUE(r.exhausted) << "exploration hit a safety cap";
  ReportSchedules("spsc_multi_segment_reuse", r);
}

// --- EngineMailbox: depth-1 exactly-once hand-off ---------------------------

TEST(ModelMailboxTest, PostersAndEngineAgreeOnExecutedCount) {
  Options opts;
  opts.max_preemptions = 2;
  Result r = Explore(opts, [] {
    ModelMailbox mailbox;
    int executed = 0;
    int posted = 0;
    Spawn([&] {
      for (int i = 0; i < 2; ++i) {
        int attempts = 0;
        while (!mailbox.Post([&executed] { ++executed; })) {
          if (++attempts > 2) return;
          Yield();
        }
        ++posted;
      }
    });
    Spawn([&] {
      int idle = 0;
      while (idle < 4) {
        if (!mailbox.RunPending()) {
          ++idle;
          Yield();
        }
      }
    });
    JoinAll();
    while (mailbox.RunPending()) {
    }
    ModelAssert(executed == posted,
                "every accepted Post must run exactly once");
    ModelAssert(!mailbox.pending(), "mailbox still pending after drain");
  });
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_TRUE(r.exhausted);
  ReportSchedules("mailbox_exactly_once", r);
}

// --- seeded bugs: the checker must find them -------------------------------

// SpscRing with the publish store downgraded to relaxed: the consumer can
// observe the new tail without the slot write being visible. On real
// weakly-ordered hardware this loses or corrupts elements; the model
// checker reports it as a data race on the payload cell.
template <typename T, typename Policy>
class RelaxedPublishRing {
 public:
  explicit RelaxedPublishRing(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  bool TryPush(T value) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ > mask_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ > mask_) return false;
    }
    slots_[tail & mask_].Set(std::move(value));
    tail_.store(tail + 1, std::memory_order_relaxed);  // BUG: no release
    return true;
  }

  std::optional<T> TryPop() {
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return std::nullopt;
    }
    T value = slots_[head & mask_].Take();
    head_.store(head + 1, std::memory_order_release);
    return value;
  }

 private:
  std::vector<typename Policy::template Cell<T>> slots_;
  size_t mask_ = 0;
  typename Policy::template Atomic<size_t> head_{0};
  size_t cached_tail_ = 0;
  typename Policy::template Atomic<size_t> tail_{0};
  size_t cached_head_ = 0;
};

TEST(ModelSeededBugTest, RelaxedPublishIsCaughtAndReplays) {
  auto body = [] {
    RelaxedPublishRing<int, verify::ModelAtomics> ring(2);
    Spawn([&] { ring.TryPush(7); });
    Spawn([&] {
      int empty_polls = 0;
      while (empty_polls < 4) {
        if (ring.TryPop().has_value()) return;
        ++empty_polls;
        Yield();
      }
    });
    JoinAll();
  };
  Options opts;
  opts.max_preemptions = 2;
  Result r = Explore(opts, body);
  EXPECT_FALSE(r.ok) << "checker failed to find the seeded relaxed-publish "
                        "bug";
  EXPECT_NE(r.message.find("data race"), std::string::npos) << r.message;
  EXPECT_FALSE(r.trace.empty());
  std::printf("[ model ] seeded relaxed-publish bug found after %ld "
              "schedules; counterexample schedule \"%s\"\n",
              r.schedules, r.trace.c_str());

  // The counterexample replays: the exact failing schedule reproduces the
  // violation in a single run.
  Options replay;
  replay.replay = r.trace;
  Result r2 = Explore(replay, body);
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.schedules, 1);
  EXPECT_NE(r2.message.find("data race"), std::string::npos);
}

// SpscRing with the producer's head refresh downgraded to relaxed: the
// producer can reuse a slot without observing that the consumer finished
// reading it — a wraparound overwrite race.
template <typename T, typename Policy>
class RelaxedHeadRefreshRing {
 public:
  explicit RelaxedHeadRefreshRing(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_.resize(cap);
  }

  bool TryPush(T value) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ > mask_) {
      cached_head_ = head_.load(std::memory_order_relaxed);  // BUG: no acquire
      if (tail - cached_head_ > mask_) return false;
    }
    slots_[tail & mask_].Set(std::move(value));
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  std::optional<T> TryPop() {
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return std::nullopt;
    }
    T value = slots_[head & mask_].Take();
    head_.store(head + 1, std::memory_order_release);
    return value;
  }

 private:
  std::vector<typename Policy::template Cell<T>> slots_;
  size_t mask_ = 0;
  typename Policy::template Atomic<size_t> head_{0};
  size_t cached_tail_ = 0;
  typename Policy::template Atomic<size_t> tail_{0};
  size_t cached_head_ = 0;
};

TEST(ModelSeededBugTest, RelaxedHeadRefreshWraparoundOverwriteIsCaught) {
  Options opts;
  opts.max_preemptions = 2;
  Result r = Explore(opts, [] {
    RelaxedHeadRefreshRing<int, verify::ModelAtomics> ring(1);
    Spawn([&] {
      for (int v = 0; v < 2; ++v) {
        int attempts = 0;
        while (!ring.TryPush(v)) {
          if (++attempts > 4) return;
          Yield();
        }
      }
    });
    Spawn([&] {
      int empty_polls = 0;
      int got = 0;
      while (got < 2 && empty_polls < 8) {
        if (ring.TryPop().has_value()) {
          ++got;
        } else {
          ++empty_polls;
          Yield();
        }
      }
    });
    JoinAll();
  });
  EXPECT_FALSE(r.ok) << "checker failed to find the seeded relaxed head "
                        "refresh bug";
  EXPECT_NE(r.message.find("data race"), std::string::npos) << r.message;
  EXPECT_FALSE(r.trace.empty());
  std::printf("[ model ] seeded head-refresh bug found after %ld schedules\n",
              r.schedules);
}

// The segmented SpscRing with the consumer's hand-back, its head_ store,
// downgraded to relaxed. The producer recycles the oldest segment once it
// sees head_ past that segment, so the consumer's takes of its slots and
// its read of the segment link are no longer ordered before the
// producer's reuse. Fresh segments hide the bug; the checker reports it
// as a data race on a cell of the recycled segment. A compact copy of
// the ring's TryPush/TryPop, as in the seeded rings above.
template <typename T, typename Policy>
class RelaxedHandBackRing {
 public:
  explicit RelaxedHandBackRing(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    seg_slots_ = std::min<size_t>(cap, 32);
    first_ = prod_seg_ = cons_seg_ = NewSegment();
    first_end_ = prod_end_ = cons_end_ = seg_slots_;
  }

  bool TryPush(T value) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ > mask_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ > mask_) return false;
    }
    if (tail == prod_end_) {
      if (cached_head_ <= first_end_ && first_end_ < tail) {
        cached_head_ = head_.load(std::memory_order_acquire);
      }
      Segment* seg;
      if (cached_head_ > first_end_) {
        seg = first_;
        first_ = seg->next.Get();
        first_end_ += seg_slots_;
        seg->next.Set(nullptr);
      } else {
        seg = NewSegment();
      }
      prod_seg_->next.Set(seg);
      prod_seg_ = seg;
      prod_end_ = tail + seg_slots_;
    }
    prod_seg_->slots[tail % seg_slots_].Set(std::move(value));
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  std::optional<T> TryPop() {
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return std::nullopt;
    }
    if (head == cons_end_) {
      cons_seg_ = cons_seg_->next.Get();
      cons_end_ += seg_slots_;
    }
    T value = cons_seg_->slots[head % seg_slots_].Take();
    head_.store(head + 1, std::memory_order_relaxed);  // BUG: no release
    return value;
  }

 private:
  struct Segment {
    explicit Segment(size_t n) : slots(n) {}
    typename Policy::template Cell<Segment*> next;
    std::vector<typename Policy::template Cell<T>> slots;
  };

  // Owns every segment, so a schedule aborted mid-recycle leaks none.
  Segment* NewSegment() {
    segments_.push_back(std::make_unique<Segment>(seg_slots_));
    return segments_.back().get();
  }

  std::vector<std::unique_ptr<Segment>> segments_;
  size_t mask_ = 0;
  size_t seg_slots_ = 0;
  typename Policy::template Atomic<size_t> head_{0};
  size_t cached_tail_ = 0;
  Segment* cons_seg_ = nullptr;
  size_t cons_end_ = 0;
  typename Policy::template Atomic<size_t> tail_{0};
  size_t cached_head_ = 0;
  Segment* prod_seg_ = nullptr;
  size_t prod_end_ = 0;
  Segment* first_ = nullptr;
  size_t first_end_ = 0;
};

// Pushes `values` through a capacity-2 RelaxedHandBackRing; as in
// RecycledSegmentIsReusedSafely, values 0-1 pass before the threads start.
Result ExploreRelaxedHandBack(int values) {
  Options opts;
  opts.max_preemptions = 2;
  return Explore(opts, [values] {
    RelaxedHandBackRing<int, verify::ModelAtomics> ring(2);
    for (int v = 0; v < 2; ++v) {
      ring.TryPush(v);
      ring.TryPop();
    }
    Spawn([&] {
      for (int v = 2; v < values; ++v) {
        int attempts = 0;
        while (!ring.TryPush(v)) {
          if (++attempts > 2) return;
          Yield();
        }
      }
    });
    Spawn([&] {
      int empty_polls = 0;
      int got = 2;
      while (got < values && empty_polls < 4) {
        if (ring.TryPop().has_value()) {
          ++got;
        } else {
          ++empty_polls;
          Yield();
        }
      }
    });
    JoinAll();
  });
}

TEST(ModelSeededBugTest, RelaxedSegmentHandBackIsCaughtOnReuse) {
  // Four values only fill the first segment and a fresh second one:
  // nothing is recycled, so the relaxed hand-back orders nothing that
  // matters and every schedule is clean.
  Result fresh = ExploreRelaxedHandBack(4);
  EXPECT_TRUE(fresh.ok) << fresh.message;
  EXPECT_TRUE(fresh.exhausted);
  // The fifth value reuses the first segment: the race is found there.
  Result r = ExploreRelaxedHandBack(5);
  EXPECT_FALSE(r.ok) << "checker failed to find the seeded relaxed "
                        "hand-back bug";
  EXPECT_NE(r.message.find("data race"), std::string::npos) << r.message;
  EXPECT_FALSE(r.trace.empty());
  // The first line names the racing cell: the recycled segment's link,
  // which the producer resets while the consumer's read of it is
  // unordered.
  std::printf("[ model ] seeded relaxed hand-back bug found after %ld "
              "schedules (clean over %ld schedules without reuse): %s\n",
              r.schedules, fresh.schedules,
              r.message.substr(0, r.message.find('\n')).c_str());
}

// --- checker self-tests -----------------------------------------------------

TEST(ModelRuntimeTest, AssertionFailuresCarryReplayableTrace) {
  Options opts;
  Result r = Explore(opts, [] {
    int x = 0;
    Spawn([&x] { x = 1; });
    JoinAll();
    ModelAssert(x == 2, "seeded assertion failure");
  });
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.message.find("seeded assertion failure"), std::string::npos);
}

TEST(ModelRuntimeTest, PreemptionBoundLimitsScheduleGrowth) {
  // The same program explored with widening preemption budgets must visit
  // a monotonically growing schedule space.
  auto run = [](int preemptions) {
    Options opts;
    opts.max_preemptions = preemptions;
    return Explore(opts, [] {
      SpscRing<int, verify::ModelAtomics> ring(2);
      Spawn([&] {
        ring.TryPush(1);
        ring.TryPush(2);
      });
      Spawn([&] {
        ring.TryPop();
        ring.TryPop();
      });
      JoinAll();
    });
  };
  Result r0 = run(0);
  Result r1 = run(1);
  Result r2 = run(2);
  EXPECT_TRUE(r0.ok) << r0.message;
  EXPECT_TRUE(r1.ok) << r1.message;
  EXPECT_TRUE(r2.ok) << r2.message;
  EXPECT_TRUE(r2.exhausted);
  EXPECT_LE(r0.schedules, r1.schedules);
  EXPECT_LE(r1.schedules, r2.schedules);
  std::printf("[ model ] preemption bound 0/1/2 -> %ld/%ld/%ld schedules\n",
              r0.schedules, r1.schedules, r2.schedules);
}

TEST(ModelRuntimeTest, MissingJoinAllIsReported) {
  Options opts;
  opts.max_schedules = 1;
  Result r = Explore(opts, [] {
    // Forgetting JoinAll would let the body's locals die under a live
    // virtual thread; the runtime reports it instead of crashing.
    [[maybe_unused]] static int sink = 0;
    Spawn([] { sink = 1; });
  });
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.message.find("JoinAll"), std::string::npos) << r.message;
}

}  // namespace
}  // namespace snap
