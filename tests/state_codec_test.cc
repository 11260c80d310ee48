// Upgrade state-codec tests: round trips, tag enforcement, and section
// structure (the intermediate format of Section 4).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/pony/flow.h"
#include "src/snap/state_codec.h"

namespace snap {
namespace {

TEST(StateCodecTest, ScalarRoundTrip) {
  StateWriter w;
  w.PutU64(0xDEADBEEFCAFEF00Dull);
  w.PutI64(-1234567890123ll);
  w.PutU32(0xA5A5A5A5u);
  w.PutU16(65535);
  w.PutU8(200);
  w.PutBool(true);
  w.PutBool(false);
  w.PutDouble(3.14159265358979);

  StateReader r(w.buffer());
  EXPECT_EQ(r.GetU64(), 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(r.GetI64(), -1234567890123ll);
  EXPECT_EQ(r.GetU32(), 0xA5A5A5A5u);
  EXPECT_EQ(r.GetU16(), 65535);
  EXPECT_EQ(r.GetU8(), 200);
  EXPECT_TRUE(r.GetBool());
  EXPECT_FALSE(r.GetBool());
  EXPECT_DOUBLE_EQ(r.GetDouble(), 3.14159265358979);
  EXPECT_TRUE(r.AtEnd());
}

TEST(StateCodecTest, StringAndBytesRoundTrip) {
  StateWriter w;
  w.PutString("pony express engine state");
  w.PutString("");
  std::vector<uint8_t> blob = {0, 1, 255, 128, 7};
  w.PutBytes(blob);
  w.PutBytes({});

  StateReader r(w.buffer());
  EXPECT_EQ(r.GetString(), "pony express engine state");
  EXPECT_EQ(r.GetString(), "");
  EXPECT_EQ(r.GetBytes(), blob);
  EXPECT_TRUE(r.GetBytes().empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(StateCodecTest, SectionsMatchByName) {
  StateWriter w;
  w.BeginSection("flows");
  w.PutU32(3);
  w.BeginSection("streams");
  w.PutU32(7);

  StateReader r(w.buffer());
  r.ExpectSection("flows");
  EXPECT_EQ(r.GetU32(), 3u);
  r.ExpectSection("streams");
  EXPECT_EQ(r.GetU32(), 7u);
}

TEST(StateCodecDeathTest, TagMismatchAborts) {
  StateWriter w;
  w.PutU64(1);
  StateReader r(w.buffer());
  // Reading the wrong type must fail loudly (schema skew during an
  // upgrade must never silently corrupt an engine).
  EXPECT_DEATH(r.GetU32(), "state tag mismatch");
}

TEST(StateCodecDeathTest, SectionNameMismatchAborts) {
  StateWriter w;
  w.BeginSection("flows");
  StateReader r(w.buffer());
  EXPECT_DEATH(r.ExpectSection("streams"), "state section mismatch");
}

TEST(StateCodecDeathTest, UnderrunAborts) {
  StateWriter w;
  w.PutU8(1);
  StateReader r(w.buffer());
  EXPECT_EQ(r.GetU8(), 1);
  EXPECT_DEATH(r.GetU64(), "state underrun");
}

TEST(StateCodecTest, InterleavedComplexState) {
  // A realistic engine dump: sections with repeated groups.
  StateWriter w;
  w.BeginSection("engine");
  w.PutU32(2);  // two flows
  for (uint32_t i = 0; i < 2; ++i) {
    w.BeginSection("flow");
    w.PutU64(i * 100);
    w.PutBytes(std::vector<uint8_t>(i + 1, static_cast<uint8_t>(i)));
  }
  StateReader r(w.buffer());
  r.ExpectSection("engine");
  uint32_t n = r.GetU32();
  ASSERT_EQ(n, 2u);
  for (uint32_t i = 0; i < n; ++i) {
    r.ExpectSection("flow");
    EXPECT_EQ(r.GetU64(), i * 100);
    EXPECT_EQ(r.GetBytes().size(), i + 1);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(StateCodecTest, SizeBytesTracksBuffer) {
  StateWriter w;
  EXPECT_EQ(w.size_bytes(), 0u);
  w.PutU64(1);
  EXPECT_EQ(w.size_bytes(), 9u);  // tag + 8 bytes
}

// Zero-copy message fragments (TxRecords sharing one message body) are an
// in-memory representation only: the upgrade codec writes each fragment's
// bytes, so the state matches a flow whose records hold copies.
TEST(StateCodecTest, ZeroCopyFragmentsSerializeLikeCopiedData) {
  PonyParams params;
  constexpr uint32_t kLength = 5000;
  std::vector<uint8_t> bytes(kLength);
  for (uint32_t i = 0; i < kLength; ++i) {
    bytes[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  auto body = std::make_shared<const std::vector<uint8_t>>(bytes);
  Flow shared({1, 10}, 0, 5, 2, TimelyParams{}, &params);
  Flow copied({1, 10}, 0, 5, 2, TimelyParams{}, &params);
  for (uint32_t offset = 0; offset < kLength;
       offset += static_cast<uint32_t>(params.mtu_payload)) {
    uint32_t len = std::min<uint32_t>(params.mtu_payload, kLength - offset);
    TxRecord a;
    a.header.type = PonyPacketType::kData;
    a.header.op_id = 9;
    a.header.stream_id = 3;
    a.header.msg_offset = offset;
    a.header.msg_length = kLength;
    a.payload_bytes = static_cast<int32_t>(len);
    a.uses_credit = true;
    TxRecord b = a;
    a.body = body;
    b.data.assign(bytes.begin() + offset, bytes.begin() + offset + len);
    shared.QueueTx(std::move(a));
    copied.QueueTx(std::move(b));
  }
  // One fragment in flight on each: unacked records serialize too.
  PacketPtr p_shared = shared.BuildNextPacket(0);
  PacketPtr p_copied = copied.BuildNextPacket(0);
  ASSERT_NE(p_shared, nullptr);
  ASSERT_NE(p_copied, nullptr);
  EXPECT_EQ(p_shared->data, p_copied->data);
  EXPECT_EQ(p_shared->pony.crc32, p_copied->pony.crc32);

  StateWriter w_shared;
  StateWriter w_copied;
  shared.Serialize(&w_shared);
  copied.Serialize(&w_copied);
  EXPECT_EQ(w_shared.buffer(), w_copied.buffer());
}

}  // namespace
}  // namespace snap
