// Threaded stress tests for the queues in their epoch-exchange roles
// (src/net/shard_net.h): shard threads burst hand-offs into per-channel
// SPSC rings while a coordinator drains them at barriers. The model
// checker (src/verify) proves the small interleavings exhaustively;
// these tests hammer the real std::atomic build with real threads and
// real barriers — over a million operations — so TSan sees the exact
// producer/consumer shape the sharded simulator uses. Assertions check
// exactly-once delivery and per-producer FIFO order; races surface as
// TSan reports (the `tsan` ctest label wires these into the sanitizer
// CI matrix).
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/queue/spsc_ring.h"

namespace snap {
namespace {

// Encode (producer, sequence) in one word so the consumer can check
// per-producer FIFO without any shared state.
constexpr uint64_t Tag(int producer, uint64_t seq) {
  return (static_cast<uint64_t>(producer) << 48) | seq;
}

// The exchange shape: P producer threads each own one SpscRing toward the
// coordinator (the (src, dst) channel matrix gives every directed pair its
// own ring, so each ring really is single-producer). Producers burst up to
// a full epoch's traffic, park at a barrier, and the coordinator drains
// every ring while they wait — exactly ShardedFabricGroup::Exchange().
TEST(EpochExchangeStressTest, SpscRingsBurstAndBarrierDrain) {
  constexpr int kProducers = 4;
  constexpr int kRounds = 300;
  constexpr int kBurst = 1000;       // <= ring capacity: no spill in-model
  constexpr size_t kCapacity = 1024;
  static_assert(kBurst <= static_cast<int>(kCapacity));

  std::vector<std::unique_ptr<SpscRing<uint64_t>>> rings;
  for (int p = 0; p < kProducers; ++p) {
    rings.push_back(std::make_unique<SpscRing<uint64_t>>(kCapacity));
  }

  // Producers arrive when their burst is staged; the coordinator drains
  // with every producer parked, then releases them into the next epoch.
  std::barrier<> staged(kProducers + 1);
  std::barrier<> drained(kProducers + 1);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([p, &rings, &staged, &drained] {
      uint64_t seq = 0;
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kBurst; ++i) {
          ASSERT_TRUE(rings[p]->TryPush(Tag(p, seq++)))
              << "ring full mid-epoch despite burst <= capacity";
        }
        staged.arrive_and_wait();
        drained.arrive_and_wait();
      }
    });
  }

  std::vector<uint64_t> next_seq(kProducers, 0);
  int64_t drained_total = 0;
  for (int round = 0; round < kRounds; ++round) {
    staged.arrive_and_wait();
    for (int p = 0; p < kProducers; ++p) {
      while (auto v = rings[p]->TryPop()) {
        int producer = static_cast<int>(*v >> 48);
        uint64_t seq = *v & ((uint64_t{1} << 48) - 1);
        ASSERT_EQ(producer, p);
        ASSERT_EQ(seq, next_seq[p]) << "per-producer FIFO broken";
        ++next_seq[p];
        ++drained_total;
      }
      EXPECT_TRUE(rings[p]->empty());
    }
    drained.arrive_and_wait();
  }
  for (std::thread& t : producers) {
    t.join();
  }
  EXPECT_EQ(drained_total, int64_t{kProducers} * kRounds * kBurst);
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_seq[p], static_cast<uint64_t>(kRounds) * kBurst);
  }
}

// Overflow variant: bursts exceed ring capacity, exercising the spill
// discipline shard_net relies on — once a ring fills it stays full until
// the barrier, so everything spilled was staged after everything ringed
// and (ring, then spill) preserves the producer's staging order.
TEST(EpochExchangeStressTest, SpscRingOverflowSpillKeepsOrder) {
  constexpr int kProducers = 4;
  constexpr int kRounds = 200;
  constexpr int kBurst = 1500;  // > capacity: forces the spill path
  constexpr size_t kCapacity = 1024;

  struct Channel {
    explicit Channel(size_t cap) : ring(cap) {}
    SpscRing<uint64_t> ring;
    std::vector<uint64_t> spill;  // producer writes, coordinator drains
  };
  std::vector<std::unique_ptr<Channel>> channels;
  for (int p = 0; p < kProducers; ++p) {
    channels.push_back(std::make_unique<Channel>(kCapacity));
  }

  std::barrier<> staged(kProducers + 1);
  std::barrier<> drained(kProducers + 1);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([p, &channels, &staged, &drained] {
      uint64_t seq = 0;
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kBurst; ++i) {
          uint64_t v = Tag(p, seq++);
          if (!channels[p]->ring.TryPush(v)) {
            channels[p]->spill.push_back(v);
          }
        }
        staged.arrive_and_wait();
        // Barrier: coordinator drains ring + spill. The producer touches
        // the spill vector again only after `drained`, matching the
        // source-shard thread's epoch lifecycle.
        drained.arrive_and_wait();
      }
    });
  }

  std::vector<uint64_t> next_seq(kProducers, 0);
  int64_t drained_total = 0;
  int64_t spilled_total = 0;
  for (int round = 0; round < kRounds; ++round) {
    staged.arrive_and_wait();
    for (int p = 0; p < kProducers; ++p) {
      Channel& ch = *channels[p];
      auto consume = [&](uint64_t v) {
        uint64_t seq = v & ((uint64_t{1} << 48) - 1);
        ASSERT_EQ(static_cast<int>(v >> 48), p);
        ASSERT_EQ(seq, next_seq[p]) << "ring+spill order broken";
        ++next_seq[p];
        ++drained_total;
      };
      while (auto v = ch.ring.TryPop()) {
        consume(*v);
      }
      spilled_total += static_cast<int64_t>(ch.spill.size());
      for (uint64_t v : ch.spill) {
        consume(v);
      }
      ch.spill.clear();
    }
    drained.arrive_and_wait();
  }
  for (std::thread& t : producers) {
    t.join();
  }
  EXPECT_EQ(drained_total, int64_t{kProducers} * kRounds * kBurst);
  EXPECT_GT(spilled_total, 0) << "burst > capacity must spill";
}

}  // namespace
}  // namespace snap
