// Tests of the lock-free primitives, including real multi-threaded stress
// (the rings are Snap's shared-memory dataplane interfaces, Section 2.2).
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <memory>
#include <thread>
#include <vector>

#include "src/queue/mailbox.h"
#include "src/queue/spsc_ring.h"

namespace snap {
namespace {

// --- SpscRing -------------------------------------------------------------

TEST(SpscRingTest, PushPopBasic) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.TryPop().value(), 1);
  EXPECT_EQ(ring.TryPop().value(), 2);
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(SpscRingTest, FullRejectsPush) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.TryPush(3));
  ring.TryPop();
  EXPECT_TRUE(ring.TryPush(3));
}

TEST(SpscRingTest, PeekDoesNotConsume) {
  SpscRing<int> ring(4);
  ring.TryPush(42);
  ASSERT_NE(ring.Peek(), nullptr);
  EXPECT_EQ(*ring.Peek(), 42);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.TryPop().value(), 42);
  EXPECT_EQ(ring.Peek(), nullptr);
}

TEST(SpscRingTest, MoveOnlyElements) {
  SpscRing<std::unique_ptr<int>> ring(4);
  EXPECT_TRUE(ring.TryPush(std::make_unique<int>(9)));
  auto out = ring.TryPop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(**out, 9);
}

TEST(SpscRingTest, WrapsAroundManyTimes) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.TryPush(i));
    ASSERT_EQ(ring.TryPop().value(), i);
  }
}

TEST(SpscRingTest, FullEmptyAlternationAcrossWraparound) {
  // Drive the ring through repeated full->empty cycles so the full() and
  // empty() boundary conditions are checked at every index wrap offset.
  SpscRing<int> ring(2);
  int next = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    ASSERT_TRUE(ring.empty());
    ASSERT_FALSE(ring.TryPop().has_value());
    ASSERT_TRUE(ring.TryPush(next++));
    ASSERT_TRUE(ring.TryPush(next++));
    ASSERT_TRUE(ring.full());
    ASSERT_FALSE(ring.TryPush(-1));
    ASSERT_EQ(ring.TryPop().value(), next - 2);
    ASSERT_EQ(ring.TryPop().value(), next - 1);
  }
}

TEST(SpscRingTest, CachedHeadRefreshUnblocksPushAfterPop) {
  // The producer caches the consumer index: a push that sees an
  // apparently-full ring must refresh cached_head_ and succeed once the
  // consumer has freed a slot. (The equivalent claim under weak memory is
  // model-checked in model_check_test.cc.)
  SpscRing<int> ring(2);
  ASSERT_TRUE(ring.TryPush(1));
  ASSERT_TRUE(ring.TryPush(2));
  ASSERT_FALSE(ring.TryPush(3));  // primes a stale cached_head_
  ASSERT_EQ(ring.TryPop().value(), 1);
  EXPECT_TRUE(ring.TryPush(3));   // must observe the freed slot
  EXPECT_EQ(ring.size(), 2u);
}

TEST(SpscRingTest, CachedTailRefreshUnblocksPopAfterPush) {
  // Mirror image: a pop that sees an apparently-empty ring must refresh
  // cached_tail_ and succeed once the producer has published.
  SpscRing<int> ring(2);
  ASSERT_FALSE(ring.TryPop().has_value());  // primes a stale cached_tail_
  ASSERT_TRUE(ring.TryPush(7));
  auto v = ring.TryPop();
  ASSERT_TRUE(v.has_value());               // must observe the new element
  EXPECT_EQ(*v, 7);
}

TEST(SpscRingTest, CapacityOneDegenerateRing) {
  // One-slot ring: every operation sits on the full/empty boundary and
  // every push reuses the same slot.
  SpscRing<int> ring(1);
  EXPECT_EQ(ring.capacity(), 1u);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ring.TryPush(i));
    ASSERT_TRUE(ring.full());
    ASSERT_FALSE(ring.TryPush(-1));
    ASSERT_EQ(ring.TryPop().value(), i);
    ASSERT_TRUE(ring.empty());
  }
}

TEST(SpscRingTest, PeekTracksHeadAcrossWraparound) {
  SpscRing<int> ring(2);
  ASSERT_TRUE(ring.TryPush(0));
  for (int i = 1; i <= 100; ++i) {
    ASSERT_TRUE(ring.TryPush(i));  // keep one in flight, wrap constantly
    ASSERT_NE(ring.Peek(), nullptr);
    ASSERT_EQ(*ring.Peek(), i - 1);
    ASSERT_EQ(ring.TryPop().value(), i - 1);
  }
  ASSERT_EQ(ring.TryPop().value(), 100);
  EXPECT_EQ(ring.Peek(), nullptr);
}

// A slot value that counts its default constructions: a ring
// value-initializes the slots of each segment it allocates.
struct CountedSlot {
  static inline int default_constructed = 0;
  CountedSlot() { ++default_constructed; }
  explicit CountedSlot(int v) : value(v) {}
  int value = 0;
};

TEST(SpscRingTest, MemoryFollowsOccupancyNotCapacity) {
  CountedSlot::default_constructed = 0;
  {
    SpscRing<CountedSlot> ring(1024);
    for (int i = 0; i < 10000; ++i) {
      ASSERT_TRUE(ring.TryPush(CountedSlot(i)));
      ASSERT_EQ(ring.TryPop()->value, i);
    }
  }
  // One element in flight needs the segment being filled plus the one
  // the consumer is leaving; the rest of the 1024 slots never exist.
  EXPECT_LE(CountedSlot::default_constructed,
            2 * static_cast<int>(SpscRing<CountedSlot>::kSegmentSlots));
}

TEST(SpscRingTest, FillsToCapacityAcrossSegmentBoundaries) {
  // 100 and 33 are not powers of two; 33 rounds to exactly two segments.
  for (size_t requested : {size_t{100}, size_t{33}, size_t{64}, size_t{1024}}) {
    SpscRing<int> ring(requested);
    const int cap = static_cast<int>(ring.capacity());
    ASSERT_GE(ring.capacity(), requested);
    int next = 0;
    int expect = 0;
    // Offset the indices first so the fill starts mid-segment, then fill
    // and drain twice: the second fill runs on recycled segments.
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(ring.TryPush(next++));
      ASSERT_EQ(ring.TryPop().value(), expect++);
    }
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < cap; ++i) {
        ASSERT_TRUE(ring.TryPush(next++)) << "requested " << requested;
      }
      EXPECT_TRUE(ring.full());
      EXPECT_FALSE(ring.TryPush(-1));
      EXPECT_EQ(static_cast<int>(ring.size()), cap);
      for (int i = 0; i < cap; ++i) {
        ASSERT_EQ(ring.TryPop().value(), expect++);
      }
      EXPECT_TRUE(ring.empty());
      EXPECT_FALSE(ring.TryPop().has_value());
    }
  }
}

TEST(SpscRingTest, PeekSeesNextSegmentBeforeConsumerMovesOntoIt) {
  SpscRing<int> ring(64);
  const int seg = static_cast<int>(SpscRing<int>::kSegmentSlots);
  for (int i = 0; i <= seg; ++i) {
    ASSERT_TRUE(ring.TryPush(i));  // index `seg` opens the second segment
  }
  for (int i = 0; i < seg; ++i) {
    ASSERT_EQ(ring.TryPop().value(), i);
  }
  // The consumer still sits on the first segment; the head is slot 0 of
  // the second one.
  ASSERT_NE(ring.Peek(), nullptr);
  EXPECT_EQ(*ring.Peek(), seg);
  EXPECT_EQ(ring.TryPop().value(), seg);
  EXPECT_EQ(ring.Peek(), nullptr);

  // One-slot segments: every head is a segment's first slot.
  SpscRing<int> one(1);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(one.TryPush(i));
    ASSERT_NE(one.Peek(), nullptr);
    EXPECT_EQ(*one.Peek(), i);
    EXPECT_EQ(one.TryPop().value(), i);
  }
}

// Counts destructions of live (not moved-from) elements.
struct Tracked {
  static inline int destroyed = 0;
  ~Tracked() { ++destroyed; }
};

TEST(SpscRingTest, DestroyingRingFreesInFlightElementsAcrossBoundary) {
  const int seg = static_cast<int>(SpscRing<int>::kSegmentSlots);
  Tracked::destroyed = 0;
  {
    SpscRing<std::unique_ptr<Tracked>> ring(128);
    SpscRing<std::vector<int>> vectors(128);
    // Leave elements in flight on both sides of a segment boundary, with
    // a recycled segment on the chain.
    for (int i = 0; i < 3 * seg + 5; ++i) {
      ASSERT_TRUE(ring.TryPush(std::make_unique<Tracked>()));
      ASSERT_TRUE(vectors.TryPush(std::vector<int>(100, i)));
    }
    for (int i = 0; i < 2 * seg + seg / 2; ++i) {
      ASSERT_TRUE(ring.TryPop().has_value());
      ASSERT_EQ(vectors.TryPop().value().front(), i);
    }
    for (int i = 0; i < seg; ++i) {
      ASSERT_TRUE(ring.TryPush(std::make_unique<Tracked>()));
      ASSERT_TRUE(vectors.TryPush(std::vector<int>(100, i)));
    }
    EXPECT_EQ(Tracked::destroyed, 2 * seg + seg / 2);
  }
  // The ring destroyed everything still in flight.
  EXPECT_EQ(Tracked::destroyed, 4 * seg + 5);
}

TEST(SpscRingTest, ConcurrentProducerConsumerPreservesFifo) {
  SpscRing<int> ring(64);
  // Modest count with yields: the CI machine may have a single core, so
  // raw spin-waiting between two threads would crawl.
  constexpr int kItems = 20000;
  std::atomic<bool> failed{false};

  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      while (!ring.TryPush(i)) {
        std::this_thread::yield();
      }
    }
  });
  std::thread consumer([&] {
    for (int i = 0; i < kItems; ++i) {
      std::optional<int> v;
      do {
        v = ring.TryPop();
        if (!v.has_value()) {
          std::this_thread::yield();
        }
      } while (!v.has_value());
      if (*v != i) {
        failed = true;
        return;
      }
    }
  });
  producer.join();
  consumer.join();
  EXPECT_FALSE(failed) << "FIFO order violated under concurrency";
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRingTest, MillionOpThreadedStress) {
  // High-volume soak of the shared-memory dataplane ring: one real
  // producer thread, one real consumer thread, a million elements through
  // a small ring (constant wrap pressure). Run under -DSNAP_SANITIZE=thread
  // to prove the memory ordering, not just the happy path.
  SpscRing<uint64_t> ring(256);
  constexpr uint64_t kItems = 1'000'000;
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> consumed_checksum{0};

  std::thread producer([&] {
    for (uint64_t i = 0; i < kItems; ++i) {
      while (!ring.TryPush(i)) {
        std::this_thread::yield();
      }
    }
  });
  std::thread consumer([&] {
    uint64_t checksum = 0;
    for (uint64_t i = 0; i < kItems; ++i) {
      std::optional<uint64_t> v;
      do {
        v = ring.TryPop();
        if (!v.has_value()) {
          std::this_thread::yield();
        }
      } while (!v.has_value());
      if (*v != i) {
        failed = true;
        return;
      }
      checksum += *v * 31 + 7;
    }
    consumed_checksum = checksum;
  });
  producer.join();
  consumer.join();
  ASSERT_FALSE(failed) << "FIFO order violated during 1M-op stress";
  uint64_t expected = 0;
  for (uint64_t i = 0; i < kItems; ++i) {
    expected += i * 31 + 7;
  }
  EXPECT_EQ(consumed_checksum.load(), expected);
  EXPECT_TRUE(ring.empty());
}

// --- EngineMailbox --------------------------------------------------------

TEST(MailboxTest, PostAndRun) {
  EngineMailbox mailbox;
  int ran = 0;
  EXPECT_TRUE(mailbox.Post([&ran] { ++ran; }));
  EXPECT_TRUE(mailbox.pending());
  EXPECT_TRUE(mailbox.RunPending());
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(mailbox.pending());
  EXPECT_FALSE(mailbox.RunPending());
}

TEST(MailboxTest, DepthOneRejectsSecondPost) {
  EngineMailbox mailbox;
  EXPECT_TRUE(mailbox.Post([] {}));
  EXPECT_FALSE(mailbox.Post([] {}));  // occupied
  EXPECT_TRUE(mailbox.RunPending());
  EXPECT_TRUE(mailbox.Post([] {}));   // free again
}

TEST(MailboxTest, ConcurrentPostersSerializeThroughEngine) {
  EngineMailbox mailbox;
  constexpr int kPerThread = 500;
  constexpr int kThreads = 4;
  std::atomic<int> executed{0};
  std::atomic<bool> stop{false};

  std::thread engine([&] {
    while (!stop.load(std::memory_order_acquire)) {
      mailbox.RunPending();
    }
    while (mailbox.RunPending()) {
    }
  });
  std::vector<std::thread> posters;
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        while (!mailbox.Post([&executed] {
          executed.fetch_add(1, std::memory_order_relaxed);
        })) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : posters) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  engine.join();
  EXPECT_EQ(executed.load(), kPerThread * kThreads);
}

TEST(MailboxTest, HighVolumePosterStress) {
  // ~200k messages from four posting threads against one running engine
  // thread; the mailbox is depth-one so posters constantly contend for the
  // slot. TSan-clean under -DSNAP_SANITIZE=thread.
  EngineMailbox mailbox;
  constexpr int kPerThread = 50000;
  constexpr int kThreads = 4;
  std::atomic<int64_t> executed{0};
  std::atomic<bool> stop{false};

  std::thread engine([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (!mailbox.RunPending()) {
        std::this_thread::yield();
      }
    }
    while (mailbox.RunPending()) {
    }
  });
  std::vector<std::thread> posters;
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        while (!mailbox.Post([&executed] {
          executed.fetch_add(1, std::memory_order_relaxed);
        })) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : posters) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  engine.join();
  EXPECT_EQ(executed.load(), int64_t{kPerThread} * kThreads);
}

}  // namespace
}  // namespace snap
