// Flow-layer unit tests: sequencing, acks, dedup, fast retransmit, RTO,
// pacing, credits, and state serialization — exercised directly, without
// engines or a fabric.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/pony/flow.h"

namespace snap {
namespace {

class FlowTest : public ::testing::Test {
 protected:
  FlowTest()
      : key_{1, 10},
        flow_(key_, 0, 5, 2, TimelyParams{}, &params_) {}

  TxRecord DataRecord(int payload = 1000, bool credit = true) {
    TxRecord rec;
    rec.header.type = PonyPacketType::kData;
    rec.header.op_id = 1;
    rec.header.msg_length = static_cast<uint32_t>(payload);
    rec.payload_bytes = payload;
    rec.uses_credit = credit;
    return rec;
  }

  // Builds an incoming packet as the peer would send it.
  Packet PeerPacket(uint64_t seq, uint64_t ack,
                    PonyPacketType type = PonyPacketType::kData) {
    Packet p;
    p.src_host = 1;
    p.pony.version = 2;
    p.pony.flow_id = (10ull << 32) | 5ull;  // peer engine 10 -> us (5)
    p.pony.seq = seq;
    p.pony.ack = ack;
    p.pony.type = type;
    p.pony.tx_timestamp = type == PonyPacketType::kData ? 1000 : 0;
    p.payload_bytes = 100;
    p.wire_bytes = 164;
    return p;
  }

  PonyParams params_;
  FlowKey key_;
  Flow flow_;
};

TEST_F(FlowTest, AssignsMonotonicSequenceNumbers) {
  flow_.QueueTx(DataRecord());
  flow_.QueueTx(DataRecord());
  PacketPtr p1 = flow_.BuildNextPacket(0);
  PacketPtr p2 = flow_.BuildNextPacket(1 * kMsec);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p1->pony.seq, 1u);
  EXPECT_EQ(p2->pony.seq, 2u);
  EXPECT_EQ(p1->pony.flow_id, (5ull << 32) | 10ull);
  EXPECT_EQ(p1->dst_host, 1);
  EXPECT_EQ(p1->steering_hash, 10u);
}

TEST_F(FlowTest, NothingToSendReturnsNull) {
  EXPECT_EQ(flow_.BuildNextPacket(0), nullptr);
  EXPECT_FALSE(flow_.CanSend(0));
  EXPECT_EQ(flow_.NextSendTime(), kSimTimeNever);
}

TEST_F(FlowTest, CumulativeAckClearsUnacked) {
  for (int i = 0; i < 3; ++i) {
    flow_.QueueTx(DataRecord());
    flow_.BuildNextPacket(i * 10 * kUsec);
  }
  EXPECT_EQ(flow_.unacked_packets(), 3u);
  flow_.OnReceive(PeerPacket(0, 2, PonyPacketType::kAck), 100 * kUsec);
  EXPECT_EQ(flow_.unacked_packets(), 1u);
  flow_.OnReceive(PeerPacket(0, 3, PonyPacketType::kAck), 110 * kUsec);
  EXPECT_EQ(flow_.unacked_packets(), 0u);
}

TEST_F(FlowTest, AckObserverFiresPerAckedPacket) {
  int observed = 0;
  flow_.set_ack_observer([&observed](const TxRecord&) { ++observed; });
  for (int i = 0; i < 5; ++i) {
    flow_.QueueTx(DataRecord());
    flow_.BuildNextPacket(i * 10 * kUsec);
  }
  flow_.OnReceive(PeerPacket(0, 5, PonyPacketType::kAck), 1 * kMsec);
  EXPECT_EQ(observed, 5);
}

TEST_F(FlowTest, InOrderReceiveDelivers) {
  Flow::RxResult r = flow_.OnReceive(PeerPacket(1, 0), 0);
  EXPECT_TRUE(r.deliver);
  EXPECT_FALSE(r.duplicate);
  r = flow_.OnReceive(PeerPacket(2, 0), 1000);
  EXPECT_TRUE(r.deliver);
}

TEST_F(FlowTest, DuplicatesSuppressedButReacked) {
  flow_.OnReceive(PeerPacket(1, 0), 0);
  Flow::RxResult r = flow_.OnReceive(PeerPacket(1, 0), 1000);
  EXPECT_TRUE(r.duplicate);
  EXPECT_FALSE(r.deliver);
  EXPECT_TRUE(flow_.ack_pending());  // immediate re-ack for dup
  EXPECT_EQ(flow_.stats().duplicates_received, 1);
}

TEST_F(FlowTest, OutOfOrderDeliveredToUpperLayerAndAcked) {
  // The lower layer delivers individual packets; reassembly is the upper
  // layer's job (Section 3.1).
  Flow::RxResult r = flow_.OnReceive(PeerPacket(3, 0), 0);
  EXPECT_TRUE(r.deliver);
  EXPECT_TRUE(flow_.ack_pending());  // dup-ack signal
  // Cumulative ack still reflects only in-order delivery.
  flow_.QueueTx(DataRecord());
  PacketPtr p = flow_.BuildNextPacket(1000);
  EXPECT_EQ(p->pony.ack, 0u);
  // Filling the hole advances the cumulative ack past both.
  flow_.OnReceive(PeerPacket(1, 0), 2000);
  flow_.OnReceive(PeerPacket(2, 0), 3000);
  flow_.QueueTx(DataRecord());
  p = flow_.BuildNextPacket(2 * kMsec);
  EXPECT_EQ(p->pony.ack, 3u);
}

TEST_F(FlowTest, ThreeDupAcksTriggerFastRetransmit) {
  for (int i = 0; i < 4; ++i) {
    flow_.QueueTx(DataRecord());
    flow_.BuildNextPacket(i * 10 * kUsec);
  }
  // Peer acks nothing (seq 1 lost) three times.
  for (int i = 0; i < 3; ++i) {
    flow_.OnReceive(PeerPacket(0, 0, PonyPacketType::kAck),
                    200 * kUsec + i * 1000);
  }
  // The missing packet (seq 1) is queued for retransmission.
  PacketPtr p = flow_.BuildNextPacket(300 * kUsec);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->pony.seq, 1u);
  EXPECT_EQ(flow_.stats().retransmits, 1);
}

TEST_F(FlowTest, RtoRetransmitsAndBacksOffRate) {
  flow_.QueueTx(DataRecord());
  flow_.BuildNextPacket(0);
  double rate_before = flow_.timely().rate_bytes_per_sec();
  EXPECT_EQ(flow_.rto_deadline(), params_.min_rto);
  EXPECT_FALSE(flow_.OnTimerCheck(params_.min_rto - 1));
  EXPECT_TRUE(flow_.OnTimerCheck(params_.min_rto + 1));
  EXPECT_EQ(flow_.stats().rto_events, 1);
  EXPECT_LT(flow_.timely().rate_bytes_per_sec(), rate_before);
  PacketPtr p = flow_.BuildNextPacket(params_.min_rto + 2);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->pony.seq, 1u);
}

// A pure ack carrying `ack` whose timestamp echo makes an RTT sample of
// `rtt` at `now`.
Packet EchoAck(uint64_t ack, SimTime now, SimDuration rtt) {
  Packet p;
  p.src_host = 1;
  p.pony.version = 2;
  p.pony.flow_id = (10ull << 32) | 5ull;
  p.pony.type = PonyPacketType::kAck;
  p.pony.ack = ack;
  p.pony.ts_echo = now - rtt;
  p.wire_bytes = 64;
  return p;
}

TEST_F(FlowTest, RtoDoublesOnConsecutiveTimeoutsAndResetsOnNewAck) {
  for (int i = 0; i < 3; ++i) {
    flow_.QueueTx(DataRecord());
  }
  ASSERT_NE(flow_.BuildNextPacket(0), nullptr);
  ASSERT_NE(flow_.BuildNextPacket(10 * kUsec), nullptr);
  // The timer runs from the first send into the empty window.
  const SimDuration base = params_.min_rto;
  EXPECT_EQ(flow_.rto(), base);
  EXPECT_EQ(flow_.rto_deadline(), base);

  SimTime t = base;
  ASSERT_TRUE(flow_.OnTimerCheck(t));
  EXPECT_EQ(flow_.rto(), 2 * base);
  EXPECT_EQ(flow_.rto_deadline(), t + 2 * base);
  EXPECT_FALSE(flow_.OnTimerCheck(t + 2 * base - 1));
  t += 2 * base;
  ASSERT_TRUE(flow_.OnTimerCheck(t));
  EXPECT_EQ(flow_.rto(), 4 * base);
  EXPECT_EQ(flow_.rto_deadline(), t + 4 * base);
  EXPECT_EQ(flow_.stats().rto_events, 2);

  // A new cumulative ack resets the backoff and restarts the timer for
  // the packet still in flight.
  t += 10 * kUsec;
  flow_.OnReceive(EchoAck(1, t, 10 * kUsec), t);
  EXPECT_EQ(flow_.unacked_packets(), 1u);
  EXPECT_EQ(flow_.rto(), base);
  EXPECT_EQ(flow_.rto_deadline(), t + base);
  // Everything acked: the timer disarms.
  flow_.OnReceive(EchoAck(2, t + 1, 10 * kUsec), t + 1);
  EXPECT_EQ(flow_.rto_deadline(), kSimTimeNever);
  EXPECT_FALSE(flow_.OnTimerCheck(t + kSec));
}

TEST_F(FlowTest, TimeoutRetransmitsOnlyTheLowestUnackedSeq) {
  for (int i = 0; i < 8; ++i) {
    flow_.QueueTx(DataRecord());
    ASSERT_NE(flow_.BuildNextPacket(i * kUsec), nullptr);
  }
  ASSERT_TRUE(flow_.OnTimerCheck(kSec));
  PacketPtr p = flow_.BuildNextPacket(kSec);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->pony.seq, 1u);
  // Not the window: nothing else is queued behind it.
  EXPECT_EQ(flow_.BuildNextPacket(kSec), nullptr);
  EXPECT_EQ(flow_.stats().retransmits, 1);
  EXPECT_EQ(flow_.retx_queue_size(), 0u);
}

TEST_F(FlowTest, PartialAckInRecoveryRetransmitsTheNextHole) {
  for (int i = 0; i < 5; ++i) {
    flow_.QueueTx(DataRecord());
    ASSERT_NE(flow_.BuildNextPacket(i * kUsec), nullptr);
  }
  // Timeout: seq 1 goes again and recovery covers seqs up to 5.
  SimTime t = kSec;
  ASSERT_TRUE(flow_.OnTimerCheck(t));
  PacketPtr p = flow_.BuildNextPacket(t);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->pony.seq, 1u);
  // Partial ack: 1 and 2 arrived, 3 is the next hole.
  t += 20 * kUsec;
  flow_.OnReceive(EchoAck(2, t, 20 * kUsec), t);
  p = flow_.BuildNextPacket(t);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->pony.seq, 3u);
  // Another partial ack: 4 is next.
  t += 20 * kUsec;
  flow_.OnReceive(EchoAck(3, t, 20 * kUsec), t);
  p = flow_.BuildNextPacket(t);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->pony.seq, 4u);
  // The ack covering the recovery point ends recovery; no more resends.
  t += 20 * kUsec;
  flow_.OnReceive(EchoAck(5, t, 20 * kUsec), t);
  EXPECT_EQ(flow_.BuildNextPacket(t), nullptr);
  EXPECT_EQ(flow_.stats().retransmits, 3);
  EXPECT_EQ(flow_.stats().rto_events, 1);
}

TEST_F(FlowTest, AckOfAnOriginalSendEndsSpuriousRecovery) {
  for (int i = 0; i < 5; ++i) {
    flow_.QueueTx(DataRecord());
    ASSERT_NE(flow_.BuildNextPacket(i * kUsec), nullptr);
  }
  // The RTT is longer than the timeout: it fires although nothing is lost.
  SimTime t = params_.min_rto;
  ASSERT_TRUE(flow_.OnTimerCheck(t));
  ASSERT_NE(flow_.BuildNextPacket(t), nullptr);
  // The first ack echoes seq 2's original send (before the timeout), so
  // the rest of the window is in flight, not lost: nothing more is resent.
  t += 100 * kUsec;
  flow_.OnReceive(EchoAck(2, t, t - 1 * kUsec), t);
  EXPECT_EQ(flow_.BuildNextPacket(t), nullptr);
  flow_.OnReceive(EchoAck(3, t + 1, t + 1 - 2 * kUsec), t + 1);
  EXPECT_EQ(flow_.BuildNextPacket(t + 1), nullptr);
  EXPECT_EQ(flow_.stats().retransmits, 1);
}

// The receiver echoes its newest arrival, so an original reordered behind
// the retransmitted hole makes a real partial ack look like the spurious
// case above. Recovery ends and the next hole waits for the timer: it
// costs one RTO, not data.
TEST_F(FlowTest, ReorderedOriginalLeavesTheNextHoleToTheRto) {
  for (int i = 0; i < 5; ++i) {
    flow_.QueueTx(DataRecord());
    ASSERT_NE(flow_.BuildNextPacket(i * kUsec), nullptr);
  }
  // Seqs 1 and 2 are lost; the timeout resends 1.
  SimTime t = params_.min_rto;
  ASSERT_TRUE(flow_.OnTimerCheck(t));
  PacketPtr p = flow_.BuildNextPacket(t);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->pony.seq, 1u);
  // The resent 1 arrives, then seq 5's delayed original (sent at 4 us),
  // before the receiver builds its ack: ack 1, echoing 4 us.
  t += 20 * kUsec;
  flow_.OnReceive(EchoAck(1, t, t - 4 * kUsec), t);
  EXPECT_EQ(flow_.BuildNextPacket(t), nullptr);  // 2 is not resent yet
  EXPECT_EQ(flow_.unacked_packets(), 4u);
  // The restarted timer resends it one RTO later, and the flow drains.
  SimTime deadline = flow_.rto_deadline();
  EXPECT_EQ(deadline, t + flow_.rto());
  EXPECT_FALSE(flow_.OnTimerCheck(deadline - 1));
  ASSERT_TRUE(flow_.OnTimerCheck(deadline));
  p = flow_.BuildNextPacket(deadline);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->pony.seq, 2u);
  t = deadline + 20 * kUsec;
  flow_.OnReceive(EchoAck(5, t, 20 * kUsec), t);
  EXPECT_EQ(flow_.unacked_packets(), 0u);
  EXPECT_EQ(flow_.stats().retransmits, 2);
  EXPECT_EQ(flow_.stats().rto_events, 2);
}

TEST_F(FlowTest, RtoTracksSrttPlusFourRttvarAboveTheFloor) {
  // First sample R: SRTT = R, RTTVAR = R/2, so RTO = 3R.
  flow_.OnReceive(EchoAck(0, kSec, 1 * kMsec), kSec);
  EXPECT_EQ(flow_.rto(), 3 * kMsec);
  // A matching sample shrinks RTTVAR by a quarter: 1 + 4 * 0.375 ms.
  flow_.OnReceive(EchoAck(0, kSec + 1, 1 * kMsec), kSec + 1);
  EXPECT_EQ(flow_.rto(), 2500 * kUsec);
  // The timer is armed with the estimate.
  flow_.QueueTx(DataRecord());
  ASSERT_NE(flow_.BuildNextPacket(2 * kSec), nullptr);
  EXPECT_EQ(flow_.rto_deadline(), 2 * kSec + 2500 * kUsec);

  // Short RTTs cannot pull the timeout below min_rto.
  Flow fast(key_, 0, 5, 2, TimelyParams{}, &params_);
  fast.OnReceive(EchoAck(0, kSec, 10 * kUsec), kSec);
  EXPECT_EQ(fast.rto(), params_.min_rto);
}

TEST_F(FlowTest, DeserializedFlowTakesNoRtoBeforeItsFirstSend) {
  for (int i = 0; i < 3; ++i) {
    flow_.QueueTx(DataRecord());
    ASSERT_NE(flow_.BuildNextPacket(i * kUsec), nullptr);
  }
  StateWriter w;
  flow_.Serialize(&w);
  StateReader r(w.buffer());
  Flow restored = Flow::Deserialize(&r, 0, 5, TimelyParams{}, &params_);
  restored.timely().RestoreRate(2e9);

  // In-flight packets are queued for retransmission, but the timer stays
  // disarmed: the first poll after restore takes no timeout and no
  // Timely rate cut.
  EXPECT_EQ(restored.rto_deadline(), kSimTimeNever);
  EXPECT_FALSE(restored.OnTimerCheck(kSec));
  EXPECT_EQ(restored.stats().rto_events, 0);
  EXPECT_DOUBLE_EQ(restored.timely().rate_bytes_per_sec(), 2e9);
  // The first retransmission arms it at min_rto.
  PacketPtr p = restored.BuildNextPacket(kSec);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->pony.seq, 1u);
  EXPECT_EQ(restored.rto_deadline(), kSec + params_.min_rto);
}

TEST_F(FlowTest, PacingSpacesPackets) {
  flow_.timely().RestoreRate(1e9);  // 1 GB/s -> ~2us per 2kB packet
  for (int i = 0; i < 64; ++i) {
    flow_.QueueTx(DataRecord(params_.mtu_payload));
  }
  // Prime the pacer, then let deficit accrue over a long idle gap: at one
  // later instant, only the burst allowance goes out.
  ASSERT_NE(flow_.BuildNextPacket(0), nullptr);
  int sent_now = 0;
  while (flow_.BuildNextPacket(1 * kMsec) != nullptr) {
    ++sent_now;
  }
  EXPECT_LE(sent_now, 17);
  EXPECT_GT(sent_now, 4);
  // After the pacing gap, more become sendable.
  SimTime next = flow_.NextSendTime();
  ASSERT_NE(next, kSimTimeNever);
  EXPECT_FALSE(flow_.CanSend(next - 1));
  EXPECT_TRUE(flow_.CanSend(next));
}

TEST_F(FlowTest, CreditGatesMessageDataButNotOneSidedOps) {
  // Exhaust the initial credit with message data.
  int64_t initial = flow_.credit();
  int sent = 0;
  while (true) {
    flow_.QueueTx(DataRecord(params_.mtu_payload, /*credit=*/true));
    if (flow_.BuildNextPacket(sent * kMsec) == nullptr) {
      break;
    }
    ++sent;
  }
  EXPECT_NEAR(static_cast<double>(sent),
              static_cast<double>(initial) / params_.mtu_payload, 2);
  EXPECT_FALSE(flow_.CanSend(kSec));
  // One-sided ops bypass credit (Section 3.3): they still go out. The
  // credit-starved message stays queued behind... so use a fresh flow.
  Flow flow2(key_, 0, 5, 2, TimelyParams{}, &params_);
  int i2 = 0;
  while (flow2.credit() >= params_.mtu_payload) {
    flow2.QueueTx(DataRecord(params_.mtu_payload, true));
    ASSERT_NE(flow2.BuildNextPacket(kSec + (++i2) * kMsec), nullptr);
  }
  TxRecord op;
  op.header.type = PonyPacketType::kOpRequest;
  op.header.op = PonyOpCode::kRead;
  op.payload_bytes = 0;
  op.uses_credit = false;
  flow2.QueueTx(std::move(op));
  PacketPtr op_packet = flow2.BuildNextPacket(kSec + (i2 + 1) * kMsec);
  ASSERT_NE(op_packet, nullptr);
  EXPECT_EQ(op_packet->pony.type, PonyPacketType::kOpRequest);
}

TEST_F(FlowTest, CreditGrantRestoresSending) {
  // Drain credit (advance time so pacing never gates the drain).
  int i = 0;
  while (flow_.credit() >= params_.mtu_payload) {
    flow_.QueueTx(DataRecord(params_.mtu_payload, true));
    ASSERT_NE(flow_.BuildNextPacket(kSec + (++i) * kMsec), nullptr);
  }
  flow_.QueueTx(DataRecord(params_.mtu_payload, true));
  EXPECT_FALSE(flow_.CanSend(2 * kSec));
  // Peer grants credit.
  Packet grant = PeerPacket(0, 0, PonyPacketType::kCredit);
  grant.pony.credit = 64 * 1024;
  flow_.OnReceive(grant, 2 * kSec);
  EXPECT_TRUE(flow_.CanSend(2 * kSec));
}

TEST_F(FlowTest, ReceiverGrantsAfterDeliveryThreshold) {
  flow_.NoteDelivered(10 * 1024);
  EXPECT_EQ(flow_.MaybeBuildCreditGrant(0), nullptr);  // below threshold
  flow_.NoteDelivered(30 * 1024);
  PacketPtr grant = flow_.MaybeBuildCreditGrant(0);
  ASSERT_NE(grant, nullptr);
  EXPECT_EQ(grant->pony.type, PonyPacketType::kCredit);
  EXPECT_EQ(grant->pony.credit, 40u * 1024u);
}

TEST_F(FlowTest, AckCoalescingEveryEighthOrDeadline) {
  // 7 packets: no ack owed yet (but a deadline exists).
  for (int i = 1; i <= 7; ++i) {
    flow_.OnReceive(PeerPacket(static_cast<uint64_t>(i), 0), i * 1000);
  }
  EXPECT_FALSE(flow_.ack_pending());
  EXPECT_NE(flow_.AckDeadline(), kSimTimeNever);
  EXPECT_EQ(flow_.MaybeBuildAck(8000), nullptr);  // before deadline
  // Eighth packet forces the ack.
  flow_.OnReceive(PeerPacket(8, 0), 8000);
  EXPECT_TRUE(flow_.ack_pending());
  PacketPtr ack = flow_.MaybeBuildAck(9000);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->pony.ack, 8u);
  EXPECT_EQ(flow_.stats().acks_sent, 1);
  // Lone packet: the delayed-ack deadline forces one out.
  flow_.OnReceive(PeerPacket(9, 0), 10000);
  EXPECT_EQ(flow_.MaybeBuildAck(11000), nullptr);
  PacketPtr late = flow_.MaybeBuildAck(10000 + 25 * kUsec);
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->pony.ack, 9u);
}

TEST_F(FlowTest, RttSamplesFeedTimely) {
  flow_.QueueTx(DataRecord());
  flow_.BuildNextPacket(0);
  Packet ack = PeerPacket(0, 1, PonyPacketType::kAck);
  ack.pony.ts_echo = 0;  // force the software-timestamp fallback
  flow_.OnReceive(ack, 30 * kUsec);
  EXPECT_EQ(flow_.stats().rtt_samples, 1);
  EXPECT_EQ(flow_.timely().last_rtt(), 30 * kUsec);
}

TEST_F(FlowTest, SerializeDeserializeRoundTrip) {
  // Build up nontrivial state: some sent, some queued, some received.
  for (int i = 0; i < 5; ++i) {
    flow_.QueueTx(DataRecord(500));
  }
  flow_.BuildNextPacket(0);
  flow_.BuildNextPacket(10 * kUsec);
  // Peer packets carry ack=0 so both of our sent packets stay unacked.
  flow_.OnReceive(PeerPacket(1, 0), 50 * kUsec);
  flow_.OnReceive(PeerPacket(3, 0), 60 * kUsec);  // out of order
  flow_.timely().RestoreRate(3.3e9);
  flow_.NoteDelivered(1000);

  StateWriter w;
  flow_.Serialize(&w);
  StateReader r(w.buffer());
  Flow restored = Flow::Deserialize(&r, 0, 5, TimelyParams{}, &params_);
  EXPECT_TRUE(r.AtEnd());

  EXPECT_EQ(restored.key(), key_);
  EXPECT_EQ(restored.wire_version(), 2);
  EXPECT_DOUBLE_EQ(restored.timely().rate_bytes_per_sec(), 3.3e9);
  EXPECT_EQ(restored.credit(), flow_.credit());
  // In-flight packets are queued for retransmission in the new engine.
  EXPECT_EQ(restored.unacked_packets(), 2u);
  PacketPtr retx = restored.BuildNextPacket(kSec);
  ASSERT_NE(retx, nullptr);
  EXPECT_EQ(retx->pony.seq, 1u);
  // Receive state is preserved: a duplicate of seq 1 is recognized.
  Flow::RxResult rx = restored.OnReceive(PeerPacket(1, 0), kSec);
  EXPECT_TRUE(rx.duplicate);
  // The out-of-order seq 3 is remembered too.
  rx = restored.OnReceive(PeerPacket(3, 0), kSec);
  EXPECT_TRUE(rx.duplicate);
  rx = restored.OnReceive(PeerPacket(2, 0), kSec);
  EXPECT_TRUE(rx.deliver);
}

// --- Messages queued whole, fragments cut at send time ---------------------

// Deterministic, non-periodic payload bytes: a fragment placed at the wrong
// offset shows as different bytes.
std::vector<uint8_t> Pattern(size_t n, uint32_t seed) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t x = static_cast<uint32_t>(i) * 2654435761u + seed;
    out[i] = static_cast<uint8_t>(x >> 24);
  }
  return out;
}

struct MessageSpec {
  uint64_t op_id = 0;
  uint64_t stream = 0;
  uint32_t length = 0;
  bool credit = false;
  std::vector<uint8_t> real;  // real bytes: a prefix of the message
};

// Queues a message the way the engine does: one record that is the first
// fragment and stands for the rest.
void QueueWhole(Flow& flow, const PonyParams& params,
                const MessageSpec& m) {
  TxRecord rec;
  rec.header.type = PonyPacketType::kData;
  rec.header.op_id = m.op_id;
  rec.header.stream_id = m.stream;
  rec.header.msg_length = m.length;
  rec.payload_bytes = std::min<int32_t>(params.mtu_payload, m.length);
  rec.uses_credit = m.credit;
  rec.rest_of_message = true;
  if (m.real.size() > static_cast<size_t>(params.mtu_payload)) {
    rec.body = std::make_shared<const std::vector<uint8_t>>(m.real);
  } else {
    rec.data = m.real;
  }
  flow.QueueTx(std::move(rec));
}

// Queues the same message as one record per MTU fragment, each holding its
// own header and its share of the real bytes.
void QueueFragments(Flow& flow, const PonyParams& params,
                    const MessageSpec& m) {
  std::shared_ptr<const std::vector<uint8_t>> body;
  if (m.real.size() > static_cast<size_t>(params.mtu_payload)) {
    body = std::make_shared<const std::vector<uint8_t>>(m.real);
  }
  for (uint32_t offset = 0; offset < m.length;) {
    uint32_t chunk =
        std::min<uint32_t>(params.mtu_payload, m.length - offset);
    TxRecord rec;
    rec.header.type = PonyPacketType::kData;
    rec.header.op_id = m.op_id;
    rec.header.stream_id = m.stream;
    rec.header.msg_offset = offset;
    rec.header.msg_length = m.length;
    rec.payload_bytes = static_cast<int32_t>(chunk);
    rec.uses_credit = m.credit;
    if (body != nullptr) {
      rec.body = body;
    } else if (offset < m.real.size()) {
      rec.data.assign(
          m.real.begin() + offset,
          m.real.begin() + std::min<size_t>(m.real.size(), offset + chunk));
    }
    flow.QueueTx(std::move(rec));
    offset += chunk;
  }
}

TxRecord OneSidedRead(uint64_t op_id) {
  TxRecord rec;
  rec.header.type = PonyPacketType::kOpRequest;
  rec.header.op = PonyOpCode::kRead;
  rec.header.op_id = op_id;
  rec.header.region_id = 3;
  rec.header.op_length = 4096;
  return rec;
}

struct WirePacket {
  PonyPacketType type;
  uint64_t stream_id;
  uint64_t op_id;
  uint64_t seq;
  uint32_t msg_offset;
  int32_t payload_bytes;
  std::vector<uint8_t> bytes;
  bool operator==(const WirePacket&) const = default;
};

// Builds packets one millisecond apart (so pacing never holds one back)
// until the flow has nothing left to send.
std::vector<WirePacket> Drain(Flow& flow, SimTime start) {
  std::vector<WirePacket> out;
  for (SimTime now = start;; now += kMsec) {
    PacketPtr p = flow.BuildNextPacket(now);
    if (p == nullptr) {
      return out;
    }
    out.push_back({p->pony.type, p->pony.stream_id, p->pony.op_id,
                   p->pony.seq, p->pony.msg_offset, p->payload_bytes,
                   p->data});
  }
}

void ExpectSameWire(const std::vector<WirePacket>& a,
                    const std::vector<WirePacket>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) {
      ADD_FAILURE() << "first difference at packet " << i << " (op "
                    << a[i].op_id << " offset " << a[i].msg_offset
                    << " vs op " << b[i].op_id << " offset "
                    << b[i].msg_offset << ")";
      return;
    }
  }
}

// A message queued as one record goes out as exactly the packets, in
// exactly the order, of the same message queued fragment by fragment:
// stream round-robin and op/message alternation see one fragment per turn
// either way.
TEST_F(FlowTest, MessagesCutAtSendTimeKeepTheWireOrder) {
  const std::vector<MessageSpec> messages = {
      {/*op_id=*/1, /*stream=*/0, 1u << 20, /*credit=*/false,
       Pattern(5000, 1)},
      {2, 1, 64 * 1024, true, Pattern(300, 2)},
      {3, 2, 64 * 1024, true, Pattern(64 * 1024, 3)},
  };
  Flow whole(key_, 0, 5, 2, TimelyParams{}, &params_);
  Flow fragments(key_, 0, 5, 2, TimelyParams{}, &params_);
  QueueWhole(whole, params_, messages[0]);
  // A 1 MB message is one queued record, not 529.
  EXPECT_EQ(whole.tx_backlog(), 1u);
  for (size_t i = 1; i < messages.size(); ++i) {
    QueueWhole(whole, params_, messages[i]);
  }
  for (const MessageSpec& m : messages) {
    QueueFragments(fragments, params_, m);
  }
  whole.QueueTx(OneSidedRead(4));
  fragments.QueueTx(OneSidedRead(4));
  EXPECT_EQ(whole.tx_backlog(), 4u);
  EXPECT_EQ(fragments.tx_backlog(), 529u + 34u + 34u + 1u);

  std::vector<WirePacket> wire = Drain(whole, 0);
  EXPECT_EQ(wire.size(), 529u + 34u + 34u + 1u);
  ExpectSameWire(wire, Drain(fragments, 0));
  EXPECT_EQ(whole.tx_backlog(), 0u);
}

// The upgrade codec writes a queued message as the fragments it would cut,
// so its bytes are those of a flow that queued one record per fragment;
// the restored flow folds each run back into one record and sends the same
// packets as the flow that was never serialized.
TEST_F(FlowTest, QueuedMessageSerializesAsItsFragments) {
  const MessageSpec credit_message = {21, 7, 1u << 20, true,
                                      Pattern(700000, 1)};
  const MessageSpec op_message = {22, 8, 300000, false, Pattern(100, 2)};
  auto build = [this, &credit_message, &op_message](Flow& flow, auto queue) {
    queue(flow, params_, credit_message);
    for (int i = 0; i < 264; ++i) {  // half of the 529 fragments
      ASSERT_NE(flow.BuildNextPacket(i * kMsec), nullptr);
    }
    queue(flow, params_, op_message);
  };
  Flow whole(key_, 0, 5, 2, TimelyParams{}, &params_);
  Flow fragments(key_, 0, 5, 2, TimelyParams{}, &params_);
  build(whole, QueueWhole);
  build(fragments, QueueFragments);
  EXPECT_EQ(whole.tx_backlog(), 2u);
  EXPECT_EQ(fragments.tx_backlog(), 265u + 152u);

  StateWriter w;
  whole.Serialize(&w);
  StateWriter w_fragments;
  fragments.Serialize(&w_fragments);
  EXPECT_EQ(w.buffer(), w_fragments.buffer());
  // Golden: the same state queued fragment by fragment, serialized by the
  // codec before messages were cut at send time.
  uint64_t hash = 1469598103934665603ull;  // FNV-1a 64
  for (uint8_t b : w.buffer()) {
    hash = (hash ^ b) * 1099511628211ull;
  }
  EXPECT_EQ(w.size_bytes(), 755023u);
  EXPECT_EQ(hash, 0x1432c88a59c371f5ull);

  StateReader r(w.buffer());
  Flow restored = Flow::Deserialize(&r, 0, 5, TimelyParams{}, &params_);
  EXPECT_TRUE(r.AtEnd());
  // 264 retransmissions plus the two folded messages.
  EXPECT_EQ(restored.retx_queue_size(), 264u);
  EXPECT_EQ(restored.tx_backlog(), 264u + 2u);
  StateWriter w_restored;
  restored.Serialize(&w_restored);
  EXPECT_EQ(w_restored.buffer(), w.buffer());

  std::vector<WirePacket> sent = Drain(restored, kSec);
  ASSERT_GE(sent.size(), 264u);
  for (size_t i = 0; i < 264; ++i) {
    EXPECT_EQ(sent[i].seq, i + 1);  // in-flight packets go again first
  }
  sent.erase(sent.begin(), sent.begin() + 264);
  std::vector<WirePacket> expected = Drain(whole, kSec);
  EXPECT_EQ(expected.size(), 265u + 152u);
  ExpectSameWire(sent, expected);
}

// Fragments queued by hand that do not reach their message's end stand
// only for themselves: restore must not fold them into a record that cuts
// the rest.
TEST_F(FlowTest, PartialFragmentRunRestoresAsQueued) {
  std::vector<uint8_t> real = Pattern(3000, 5);
  for (uint32_t offset : {0u, 1984u}) {
    TxRecord rec;
    rec.header.type = PonyPacketType::kData;
    rec.header.op_id = 9;
    rec.header.msg_offset = offset;
    rec.header.msg_length = 10000;
    rec.payload_bytes = params_.mtu_payload;
    rec.uses_credit = true;
    rec.data.assign(real.begin() + offset,
                    real.begin() + std::min<size_t>(real.size(),
                                                    offset + 1984));
    flow_.QueueTx(std::move(rec));
  }
  StateWriter w;
  flow_.Serialize(&w);
  StateReader r(w.buffer());
  Flow restored = Flow::Deserialize(&r, 0, 5, TimelyParams{}, &params_);
  EXPECT_EQ(restored.tx_backlog(), 2u);
  StateWriter w_restored;
  restored.Serialize(&w_restored);
  EXPECT_EQ(w_restored.buffer(), w.buffer());
  std::vector<WirePacket> sent = Drain(restored, 0);
  EXPECT_EQ(sent.size(), 2u);
  ExpectSameWire(sent, Drain(flow_, 0));
}

}  // namespace
}  // namespace snap
