// Packet-layer tests: CRC32C vectors, wire encode/decode across versions,
// version negotiation, and the packet pool.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/packet/crc32.h"
#include "src/packet/packet_pool.h"
#include "src/packet/wire.h"
#include "src/stats/telemetry.h"

namespace snap {
namespace {

// --- CRC32C ----------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vectors for CRC32C.
  uint8_t zeros[32] = {};
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
  uint8_t ones[32];
  std::memset(ones, 0xFF, sizeof(ones));
  EXPECT_EQ(Crc32c(ones, sizeof(ones)), 0x62A8AB43u);
  const char* numbers = "123456789";
  EXPECT_EQ(Crc32c(numbers, 9), 0xE3069283u);
}

TEST(Crc32cTest, ChainingEqualsOneShot) {
  const char* data = "snap microkernel host networking";
  size_t len = std::strlen(data);
  uint32_t one_shot = Crc32c(data, len);
  uint32_t first = Crc32c(data, 10);
  uint32_t chained = Crc32c(data + 10, len - 10, first);
  EXPECT_EQ(one_shot, chained);
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  uint8_t buf[64];
  for (size_t i = 0; i < sizeof(buf); ++i) {
    buf[i] = static_cast<uint8_t>(i);
  }
  uint32_t clean = Crc32c(buf, sizeof(buf));
  for (int bit = 0; bit < 64 * 8; bit += 37) {
    buf[bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
    EXPECT_NE(Crc32c(buf, sizeof(buf)), clean) << "missed bit " << bit;
    buf[bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
  }
}

// --- Wire format ------------------------------------------------------------

PonyHeader MakeHeader(uint16_t version) {
  PonyHeader h;
  h.version = version;
  h.flow_id = 0xAABBCCDD00112233ull;
  h.seq = 777;
  h.ack = 776;
  h.type = PonyPacketType::kOpRequest;
  h.op = PonyOpCode::kIndirectRead;
  h.op_id = 0x1234567890ull;
  h.stream_id = 42;
  h.msg_offset = 4096;
  h.msg_length = 65536;
  h.region_id = 0xFEDCBA98ull;
  h.region_offset = 512;
  h.op_length = 64;
  h.batch = 8;
  h.credit = 32768;
  h.status = 0;
  h.tx_timestamp = 123456789;
  h.ts_echo = 987654321;
  return h;
}

TEST(WireTest, V2RoundTripPreservesAllFields) {
  PonyHeader h = MakeHeader(2);
  std::vector<uint8_t> encoded;
  ASSERT_TRUE(EncodePonyHeader(h, &encoded).ok());
  EXPECT_EQ(static_cast<int>(encoded.size()), PonyHeaderWireSize(2));
  auto decoded = DecodePonyHeader(encoded.data(), encoded.size());
  ASSERT_TRUE(decoded.ok());
  const PonyHeader& d = *decoded;
  EXPECT_EQ(d.version, 2);
  EXPECT_EQ(d.flow_id, h.flow_id);
  EXPECT_EQ(d.seq, h.seq);
  EXPECT_EQ(d.ack, h.ack);
  EXPECT_EQ(d.type, h.type);
  EXPECT_EQ(d.op, h.op);
  EXPECT_EQ(d.op_id, h.op_id);
  EXPECT_EQ(d.stream_id, h.stream_id);
  EXPECT_EQ(d.msg_offset, h.msg_offset);
  EXPECT_EQ(d.msg_length, h.msg_length);
  EXPECT_EQ(d.region_id, h.region_id);
  EXPECT_EQ(d.region_offset, h.region_offset);
  EXPECT_EQ(d.op_length, h.op_length);
  EXPECT_EQ(d.batch, h.batch);
  EXPECT_EQ(d.credit, h.credit);
  EXPECT_EQ(d.tx_timestamp, h.tx_timestamp);
  EXPECT_EQ(d.ts_echo, h.ts_echo);
}

TEST(WireTest, V1DropsV2OnlyFields) {
  PonyHeader h = MakeHeader(1);
  std::vector<uint8_t> encoded;
  ASSERT_TRUE(EncodePonyHeader(h, &encoded).ok());
  EXPECT_EQ(static_cast<int>(encoded.size()), PonyHeaderWireSize(1));
  EXPECT_LT(PonyHeaderWireSize(1), PonyHeaderWireSize(2));
  auto decoded = DecodePonyHeader(encoded.data(), encoded.size());
  ASSERT_TRUE(decoded.ok());
  // v2-only fields come back as defaults (the transport falls back to
  // software timestamps and unbatched indirections).
  EXPECT_EQ(decoded->tx_timestamp, 0);
  EXPECT_EQ(decoded->ts_echo, 0);
  EXPECT_EQ(decoded->batch, 0);
  EXPECT_EQ(decoded->seq, h.seq);
}

TEST(WireTest, RejectsUnsupportedVersions) {
  PonyHeader h = MakeHeader(1);
  h.version = 0;
  std::vector<uint8_t> encoded;
  EXPECT_FALSE(EncodePonyHeader(h, &encoded).ok());
  h.version = 99;
  EXPECT_FALSE(EncodePonyHeader(h, &encoded).ok());

  uint16_t bogus = 57;
  uint8_t buf[128] = {};
  std::memcpy(buf, &bogus, 2);
  EXPECT_FALSE(DecodePonyHeader(buf, sizeof(buf)).ok());
}

TEST(WireTest, RejectsTruncatedBuffers) {
  PonyHeader h = MakeHeader(2);
  std::vector<uint8_t> encoded;
  ASSERT_TRUE(EncodePonyHeader(h, &encoded).ok());
  for (size_t len = 0; len < encoded.size(); len += 7) {
    EXPECT_FALSE(DecodePonyHeader(encoded.data(), len).ok())
        << "accepted truncation at " << len;
  }
}

TEST(WireTest, CrcCoversHeaderAndPayload) {
  PonyHeader h = MakeHeader(2);
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  uint32_t crc = PonyPacketCrc(h, payload);
  // CRC field itself is excluded from coverage.
  h.crc32 = crc;
  EXPECT_EQ(PonyPacketCrc(h, payload), crc);
  // Any header mutation changes the CRC.
  PonyHeader h2 = h;
  h2.seq += 1;
  EXPECT_NE(PonyPacketCrc(h2, payload), crc);
  // Any payload mutation changes the CRC.
  payload[3] ^= 0x80;
  EXPECT_NE(PonyPacketCrc(h, payload), crc);
}

TEST(WireTest, NegotiationPicksHighestCommon) {
  auto v = NegotiateWireVersion(1, 2, 1, 2);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 2);
  v = NegotiateWireVersion(1, 2, 1, 1);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 1);  // least common denominator
  v = NegotiateWireVersion(2, 2, 1, 1);
  EXPECT_FALSE(v.ok());  // disjoint
}

// --- PacketPool -------------------------------------------------------------

TEST(PacketPoolTest, AllocateAndFree) {
  PacketPool pool(4, "test");
  PacketPtr p = pool.Allocate();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(pool.stats().allocated, 1);
  pool.Free(std::move(p));
  EXPECT_EQ(pool.stats().allocated, 0);
  EXPECT_EQ(pool.stats().total_allocs, 1);
}

TEST(PacketPoolTest, ExhaustionFailsCleanly) {
  PacketPool pool(2);
  PacketPtr a = pool.Allocate();
  PacketPtr b = pool.Allocate();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(pool.Allocate(), nullptr);
  EXPECT_EQ(pool.stats().failed_allocs, 1);
  pool.Free(std::move(a));
  EXPECT_NE(pool.Allocate(), nullptr);
}

TEST(PacketPoolTest, RecycledPacketsAreClean) {
  PacketPool pool(2);
  PacketPtr p = pool.Allocate();
  p->pony.seq = 999;
  p->data = {1, 2, 3};
  p->payload_bytes = 3;
  pool.Free(std::move(p));
  PacketPtr q = pool.Allocate();
  EXPECT_EQ(q->pony.seq, 0u);
  EXPECT_TRUE(q->data.empty());
  EXPECT_EQ(q->payload_bytes, 0);
}

TEST(PacketPoolTest, PeakTracksHighWaterMark) {
  PacketPool pool(10);
  std::vector<PacketPtr> held;
  for (int i = 0; i < 7; ++i) {
    held.push_back(pool.Allocate());
  }
  for (auto& p : held) {
    pool.Free(std::move(p));
  }
  EXPECT_EQ(pool.stats().peak_allocated, 7);
  EXPECT_EQ(pool.stats().allocated, 0);
}

TEST(PacketPoolTest, RecyclingPreservesPayloadCapacity) {
  // Regression for `*p = Packet{}` discarding the recycled data buffer:
  // a recycled packet must come back with its old capacity intact so the
  // payload write does not reallocate.
  PacketPool pool(4);
  PacketPtr p = pool.Allocate(5000);
  p->data.assign(5000, 0xAB);
  const uint8_t* buffer = p->data.data();
  pool.Free(std::move(p));

  PacketPtr q = pool.Allocate(5000);
  ASSERT_NE(q, nullptr);
  EXPECT_TRUE(q->data.empty());          // clean...
  EXPECT_GE(q->data.capacity(), 5000u);  // ...but capacity retained
  q->data.assign(5000, 0xCD);
  EXPECT_EQ(q->data.data(), buffer);  // same heap buffer, no realloc
  EXPECT_EQ(pool.stats().recycled, 1);
  EXPECT_EQ(pool.stats().recycled_with_capacity, 1);
}

TEST(PacketPoolTest, SizeClassesKeepBigAndSmallBuffersApart) {
  // A stream of ack-sized allocations must not burn through the recycled
  // 5kB MTU buffers (and vice versa): each class prefers its own list.
  PacketPool pool(16);
  PacketPtr big = pool.Allocate(5000);
  big->data.resize(5000);
  PacketPtr small = pool.Allocate(64);
  small->data.resize(64);
  pool.Free(std::move(big));
  pool.Free(std::move(small));

  PacketPtr ack = pool.Allocate(64);
  EXPECT_LT(ack->data.capacity(), 5000u);  // got the small buffer
  PacketPtr mtu = pool.Allocate(5000);
  EXPECT_GE(mtu->data.capacity(), 5000u);  // big buffer still available
  EXPECT_EQ(pool.stats().recycled_with_capacity, 2);
}

TEST(PacketPoolTest, FallbackCrossesClassesRatherThanAllocatingFresh) {
  PacketPool pool(4);
  PacketPtr p = pool.Allocate(64);
  p->data.resize(64);
  pool.Free(std::move(p));
  // Only a small buffer is pooled; a big request still recycles it (the
  // buffer grows) instead of minting a new Packet.
  PacketPtr q = pool.Allocate(5000);
  EXPECT_EQ(pool.stats().recycled, 1);
  EXPECT_EQ(pool.stats().fresh_allocs, 1);  // just the first Allocate
  EXPECT_EQ(pool.stats().recycled_with_capacity, 0);
  EXPECT_GE(q->data.capacity(), 5000u);  // hint pre-reserved
}

TEST(PacketPoolTest, AdoptOwnerThreadTransfersOwnershipAcrossThreads) {
  // Regression for the live-mode handoff: a pool built and warmed on the
  // setup thread is claimed by the engine thread with AdoptOwnerThread.
  // Without the adopt, the worker's first Allocate would trip the
  // single-owner assert in debug builds.
  PacketPool pool(4, "handoff");
  PacketPtr warm = pool.Allocate(5000);
  warm->data.resize(5000);
  pool.Free(std::move(warm));  // main thread is the owner now

  std::thread worker([&pool] {
    pool.AdoptOwnerThread();
    PacketPtr p = pool.Allocate(5000);
    ASSERT_NE(p, nullptr);
    EXPECT_GE(p->data.capacity(), 5000u);  // got the warmed buffer
    pool.Free(std::move(p));
  });
  worker.join();

  // The transfer is explicit each way: the main thread re-adopts before
  // touching the pool again.
  pool.AdoptOwnerThread();
  PacketPtr p = pool.Allocate();
  EXPECT_NE(p, nullptr);
  pool.Free(std::move(p));
  EXPECT_EQ(pool.stats().allocated, 0);
}

TEST(PacketTest, ExitingThreadReleasesItsFreelist) {
  // Packet's thread-local freelist keeps recycled blocks per thread. A
  // thread that exits must hand them back to the allocator, or
  // LeakSanitizer (ASan builds) reports every block on its list.
  std::thread worker([] {
    std::vector<PacketPtr> packets;
    for (int i = 0; i < 64; ++i) {
      packets.push_back(std::make_unique<Packet>());
    }
    packets.clear();  // all 64 blocks now sit on this thread's list
    PacketPtr reused = std::make_unique<Packet>();
    EXPECT_NE(reused, nullptr);
  });
  worker.join();
}

TEST(PacketPoolTest, ClassForSizeBoundaries) {
  EXPECT_EQ(PacketPool::ClassForSize(0), 0);
  EXPECT_EQ(PacketPool::ClassForSize(1), 1);
  EXPECT_EQ(PacketPool::ClassForSize(128), 1);
  EXPECT_EQ(PacketPool::ClassForSize(129), 2);
  EXPECT_EQ(PacketPool::ClassForSize(2048), 2);
  EXPECT_EQ(PacketPool::ClassForSize(2049), 3);
  EXPECT_EQ(PacketPool::ClassForSize(5000), 3);
}

TEST(PacketPoolTest, ExportStatsPublishesCounters) {
  Telemetry telemetry;
  PacketPool pool(4, "engine0");
  PacketPtr p = pool.Allocate(100);
  p->data.resize(100);
  pool.Free(std::move(p));
  pool.Allocate(100);
  pool.ExportStats(&telemetry, "snap/engine0/pool");
  auto snap = telemetry.SnapshotValues();
  EXPECT_EQ(snap["snap/engine0/pool/total_allocs"], 2);
  EXPECT_EQ(snap["snap/engine0/pool/recycled"], 1);
  EXPECT_EQ(snap["snap/engine0/pool/recycled_with_capacity"], 1);
  EXPECT_EQ(snap["snap/engine0/pool/allocated"], 1);
  // Re-export publishes absolute values, not deltas.
  pool.ExportStats(&telemetry, "snap/engine0/pool");
  snap = telemetry.SnapshotValues();
  EXPECT_EQ(snap["snap/engine0/pool/total_allocs"], 2);
}

}  // namespace
}  // namespace snap
