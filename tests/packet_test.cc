// Packet-layer tests: CRC32C vectors, wire encode/decode across versions,
// version negotiation, and Packet's block and payload-buffer recycling.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/packet/crc32.h"
#include "src/packet/packet.h"
#include "src/packet/wire.h"

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

// --- Packet recycling -------------------------------------------------------

// Every field a recycled packet could leak from its previous life.
void ExpectSameAsFresh(const Packet& p, const Packet& fresh) {
  EXPECT_EQ(p.src_host, fresh.src_host);
  EXPECT_EQ(p.dst_host, fresh.dst_host);
  EXPECT_EQ(p.steering_hash, fresh.steering_hash);
  EXPECT_EQ(p.proto, fresh.proto);
  EXPECT_EQ(p.pony.version, fresh.pony.version);
  EXPECT_EQ(p.pony.flow_id, fresh.pony.flow_id);
  EXPECT_EQ(p.pony.seq, fresh.pony.seq);
  EXPECT_EQ(p.pony.ack, fresh.pony.ack);
  EXPECT_EQ(p.pony.type, fresh.pony.type);
  EXPECT_EQ(p.pony.op, fresh.pony.op);
  EXPECT_EQ(p.pony.op_id, fresh.pony.op_id);
  EXPECT_EQ(p.pony.stream_id, fresh.pony.stream_id);
  EXPECT_EQ(p.pony.msg_offset, fresh.pony.msg_offset);
  EXPECT_EQ(p.pony.msg_length, fresh.pony.msg_length);
  EXPECT_EQ(p.pony.region_id, fresh.pony.region_id);
  EXPECT_EQ(p.pony.region_offset, fresh.pony.region_offset);
  EXPECT_EQ(p.pony.op_length, fresh.pony.op_length);
  EXPECT_EQ(p.pony.batch, fresh.pony.batch);
  EXPECT_EQ(p.pony.credit, fresh.pony.credit);
  EXPECT_EQ(p.pony.status, fresh.pony.status);
  EXPECT_EQ(p.pony.tx_timestamp, fresh.pony.tx_timestamp);
  EXPECT_EQ(p.pony.ts_echo, fresh.pony.ts_echo);
  EXPECT_EQ(p.pony.crc32, fresh.pony.crc32);
  EXPECT_EQ(p.tcp.conn_id, fresh.tcp.conn_id);
  EXPECT_EQ(p.tcp.dst_port, fresh.tcp.dst_port);
  EXPECT_EQ(p.tcp.seq, fresh.tcp.seq);
  EXPECT_EQ(p.tcp.ack, fresh.tcp.ack);
  EXPECT_EQ(p.tcp.window, fresh.tcp.window);
  EXPECT_EQ(p.tcp.syn, fresh.tcp.syn);
  EXPECT_EQ(p.tcp.fin, fresh.tcp.fin);
  EXPECT_EQ(p.tcp.is_ack, fresh.tcp.is_ack);
  EXPECT_EQ(p.virt_src_vm, fresh.virt_src_vm);
  EXPECT_EQ(p.virt_dst_vm, fresh.virt_dst_vm);
  EXPECT_EQ(p.payload_bytes, fresh.payload_bytes);
  EXPECT_TRUE(p.data.empty());
  EXPECT_EQ(p.wire_bytes, fresh.wire_bytes);
  EXPECT_EQ(p.enqueue_time, fresh.enqueue_time);
  EXPECT_EQ(p.rx_time, fresh.rx_time);
  EXPECT_EQ(p.tenant, fresh.tenant);
  EXPECT_FALSE(p.chaos_corrupted);
}

// Dirties every field ExpectSameAsFresh checks.
void Scribble(Packet* p) {
  p->src_host = 3;
  p->dst_host = 4;
  p->steering_hash = 0xDEADBEEF;
  p->proto = WireProtocol::kTcp;
  p->pony = MakeHeader(2);
  p->pony.status = 7;
  p->pony.crc32 = 0x12345678;
  p->tcp.conn_id = 9;
  p->tcp.dst_port = 80;
  p->tcp.seq = 10;
  p->tcp.ack = 11;
  p->tcp.window = 12;
  p->tcp.syn = true;
  p->tcp.fin = true;
  p->tcp.is_ack = true;
  p->virt_src_vm = 13;
  p->virt_dst_vm = 14;
  p->payload_bytes = 5000;
  p->wire_bytes = 5064;
  p->enqueue_time = 15;
  p->rx_time = 16;
  p->tenant = 17;
  p->chaos_corrupted = true;
}

TEST(PacketTest, RecycledBlockAndPayloadBufferComeBackClean) {
  // A fresh thread starts with an empty freelist and buffer cache, so
  // every reuse below is the one this test set up.
  std::thread worker([] {
    const Packet fresh;
    EXPECT_EQ(fresh.data.capacity(), 0u);

    PacketPtr p = std::make_unique<Packet>();
    Scribble(p.get());
    p->data.assign(5000, 0xAB);
    const void* block = p.get();
    const uint8_t* buffer = p->data.data();
    p.reset();  // block -> freelist, buffer -> payload cache

    PacketPtr q = std::make_unique<Packet>();
    EXPECT_EQ(static_cast<const void*>(q.get()), block);
    ExpectSameAsFresh(*q, fresh);
    // The cached buffer keeps its capacity, so refilling it does not
    // reallocate.
    EXPECT_GE(q->data.capacity(), 5000u);
    q->data.assign(5000, 0xCD);
    EXPECT_EQ(q->data.data(), buffer);
  });
  worker.join();
}

TEST(PacketTest, JumboPayloadBufferIsNotCached) {
  // Buffers above the cache's 64 KB per-buffer cap go back to the heap,
  // so one jumbo payload cannot pin its memory in the cache.
  std::thread worker([] {
    PacketPtr p = std::make_unique<Packet>();
    p->data.assign(64 * 1024 + 1, 0xAB);
    p.reset();

    PacketPtr q = std::make_unique<Packet>();
    EXPECT_TRUE(q->data.empty());
    EXPECT_EQ(q->data.capacity(), 0u);
  });
  worker.join();
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

}  // namespace
}  // namespace snap
