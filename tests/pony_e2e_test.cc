// End-to-end Pony Express tests over the full stack: two simulated hosts,
// real engines scheduled on simulated cores, packets through the fabric.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "src/apps/pony_apps.h"
#include "src/apps/simhost.h"
#include "src/testing/invariants.h"

namespace snap {
namespace {

// Holds each first-transmission data fragment routed toward `dst_host`
// until its message's last fragment arrives, then delivers the held
// fragments newest first: the receiver sees every message in exactly
// reverse fragment order. Retransmissions and control packets pass through.
class ReversingHook {
 public:
  ReversingHook(Fabric* fabric, int dst_host) : fabric_(fabric) {
    fabric->SetDeliveryHook(dst_host, [this](PacketPtr p, SimTime t) {
      Process(std::move(p), t);
    });
  }

  int64_t reversed() const { return reversed_; }

 private:
  void Process(PacketPtr p, SimTime wire_time) {
    const PonyHeader& h = p->pony;
    if (h.type != PonyPacketType::kData ||
        !seen_.insert({h.op_id, h.msg_offset}).second) {
      fabric_->EnqueueAtPort(std::move(p), wire_time);
      return;
    }
    bool last = h.msg_offset + p->payload_bytes >= h.msg_length;
    held_.push_back(std::move(p));
    if (!last) {
      return;
    }
    reversed_ += static_cast<int64_t>(held_.size());
    while (!held_.empty()) {
      fabric_->EnqueueAtPort(std::move(held_.back()), wire_time);
      held_.pop_back();
    }
  }

  Fabric* fabric_;
  std::set<std::pair<uint64_t, uint32_t>> seen_;
  std::vector<PacketPtr> held_;
  int64_t reversed_ = 0;
};

class PonyE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<Simulator>(42);
    fabric_ = std::make_unique<Fabric>(sim_.get(), NicParams{});
    directory_ = std::make_unique<PonyDirectory>();
  }

  SimHostOptions DedicatedOptions() {
    SimHostOptions options;
    options.group.mode = SchedulingMode::kDedicatedCores;
    options.group.dedicated_cores = {0};
    return options;
  }

  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<PonyDirectory> directory_;
};

TEST_F(PonyE2eTest, SmallMessageDeliveredWithPayload) {
  SimHost a(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  SimHost b(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "appA");
  auto cb = b.CreateClient(eb, "appB");

  CpuCostSink cost;
  uint64_t stream = ca->CreateStream(eb->address());
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8};
  uint64_t op = ca->SendMessage(eb->address(), stream, 0, payload, &cost);
  ASSERT_NE(op, 0u);

  sim_->RunFor(5 * kMsec);

  auto msg = cb->PollMessage(&cost);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->data, payload);
  EXPECT_EQ(msg->from.host, a.host_id());
  EXPECT_EQ(msg->stream_id, stream);

  // Sender got a completion.
  auto completion = ca->PollCompletion(&cost);
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->op_id, op);
  EXPECT_EQ(completion->status, PonyOpStatus::kOk);
}

TEST_F(PonyE2eTest, LargeMessageFragmentsAndReassembles) {
  SimHost a(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  SimHost b(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "appA");
  auto cb = b.CreateClient(eb, "appB");

  CpuCostSink cost;
  uint64_t stream = ca->CreateStream(eb->address());
  // ~10 MTUs of real data with a recognizable pattern.
  std::vector<uint8_t> payload(20000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7);
  }
  ca->SendMessage(eb->address(), stream, 0, payload, &cost);
  sim_->RunFor(10 * kMsec);

  auto msg = cb->PollMessage(&cost);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->length, static_cast<int64_t>(payload.size()));
  EXPECT_EQ(msg->data, payload);
  // Fragmentation actually happened.
  EXPECT_GT(ea->stats().tx_packets, 5);
}

// The receive buffer holds the real bytes only. A 1 MB message whose real
// body is an 8-byte RPC header (Fig. 6(b)'s responses) arrives with its
// full length but an 8-byte buffer, not a zero-filled megabyte.
TEST_F(PonyE2eTest, SyntheticTailIsNotAllocated) {
  SimHost a(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  SimHost b(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "appA");
  auto cb = b.CreateClient(eb, "appB");

  CpuCostSink cost;
  uint64_t stream = ca->CreateStream(eb->address());
  constexpr int64_t kBytes = 1 << 20;
  std::vector<uint8_t> header = {0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4};
  ASSERT_NE(ca->SendMessage(eb->address(), stream, kBytes, header, &cost),
            0u);
  sim_->RunFor(50 * kMsec);

  auto msg = cb->PollMessage(&cost);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->length, kBytes);
  EXPECT_EQ(msg->data, header);
  EXPECT_LT(msg->data.capacity(), size_t{64 * 1024});
  EXPECT_GT(ea->stats().tx_packets, kBytes / PonyParams{}.mtu_payload);
}

// A real prefix spanning several fragments, received in reverse order:
// later fragments arrive first and the buffer still ends at the last real
// byte, with each fragment's bytes in place.
TEST_F(PonyE2eTest, ReorderedRealPrefixArrivesExactly) {
  SimHost a(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  SimHost b(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "appA");
  auto cb = b.CreateClient(eb, "appB");
  ReversingHook reverse(fabric_.get(), b.host_id());

  CpuCostSink cost;
  uint64_t stream = ca->CreateStream(eb->address());
  constexpr int64_t kBytes = 64 * 1024;
  std::vector<uint8_t> prefix(5000);
  for (size_t i = 0; i < prefix.size(); ++i) {
    prefix[i] = static_cast<uint8_t>(i * 13 + 1);
  }
  ASSERT_NE(ca->SendMessage(eb->address(), stream, kBytes, prefix, &cost),
            0u);
  sim_->RunFor(20 * kMsec);

  EXPECT_GE(reverse.reversed(), kBytes / PonyParams{}.mtu_payload);
  auto msg = cb->PollMessage(&cost);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->length, kBytes);
  EXPECT_EQ(msg->data, prefix);
}

// A fully real multi-fragment message, received in reverse order, arrives
// whole and byte-exact.
TEST_F(PonyE2eTest, ReorderedFullyRealMessageArrivesWhole) {
  SimHost a(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  SimHost b(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "appA");
  auto cb = b.CreateClient(eb, "appB");
  ReversingHook reverse(fabric_.get(), b.host_id());

  CpuCostSink cost;
  uint64_t stream = ca->CreateStream(eb->address());
  std::vector<uint8_t> payload(20000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  ASSERT_NE(ca->SendMessage(eb->address(), stream, 0, payload, &cost), 0u);
  sim_->RunFor(20 * kMsec);

  EXPECT_GE(reverse.reversed(),
            static_cast<int64_t>(payload.size()) / PonyParams{}.mtu_payload);
  auto msg = cb->PollMessage(&cost);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->length, static_cast<int64_t>(payload.size()));
  EXPECT_EQ(msg->data, payload);
}

TEST_F(PonyE2eTest, PingPongLatencyIsMicroseconds) {
  SimHost a(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  SimHost b(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "appA");
  auto cb = b.CreateClient(eb, "appB");

  PonyEchoServerTask server("echo", b.cpu(), cb.get(), /*spin=*/false);
  server.Start();
  PonyPingTask::Options options;
  options.peer = eb->address();
  options.iterations = 200;
  options.spin = false;
  PonyPingTask ping("ping", a.cpu(), ca.get(), options);
  ping.Start();

  sim_->RunFor(2000 * kMsec);
  EXPECT_TRUE(ping.done());
  EXPECT_EQ(ping.latency().count(), 200);
  // Same-rack two-sided RTT: should land well under 100us and above 2us.
  EXPECT_LT(ping.latency().Mean(), 100 * kUsec);
  EXPECT_GT(ping.latency().Mean(), 2 * kUsec);
}

TEST_F(PonyE2eTest, MessagesSurviveRandomPacketLoss) {
  fabric_->set_random_drop_probability(0.05);
  SimHost a(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  SimHost b(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "appA");
  auto cb = b.CreateClient(eb, "appB");

  CpuCostSink cost;
  uint64_t stream = ca->CreateStream(eb->address());
  constexpr int kMessages = 50;
  for (int i = 0; i < kMessages; ++i) {
    std::vector<uint8_t> payload(3000, static_cast<uint8_t>(i));
    ASSERT_NE(ca->SendMessage(eb->address(), stream, 0, payload, &cost), 0u);
  }
  sim_->RunFor(4000 * kMsec);

  int received = 0;
  while (true) {
    auto msg = cb->PollMessage(&cost);
    if (!msg.has_value()) {
      break;
    }
    ASSERT_EQ(msg->length, 3000);
    ++received;
  }
  EXPECT_EQ(received, kMessages);
  // Loss actually occurred and was repaired.
  Flow* flow = ea->FindFlow(eb->address());
  ASSERT_NE(flow, nullptr);
  EXPECT_GT(flow->stats().retransmits, 0);
}

TEST_F(PonyE2eTest, ThroughputStreamMovesGigabitsPerSecond) {
  SimHost a(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  SimHost b(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "appA");
  auto cb = b.CreateClient(eb, "appB");

  PonyStreamReceiverTask receiver("rx", b.cpu(), cb.get());
  receiver.Start();
  PonyStreamSenderTask::Options options;
  options.peer = eb->address();
  options.message_bytes = 64 * 1024;
  PonyStreamSenderTask sender("tx", a.cpu(), ca.get(), options);
  sender.Start();

  sim_->RunFor(50 * kMsec);
  double gbps = static_cast<double>(receiver.bytes_received()) * 8.0 /
                ToSec(50 * kMsec) / 1e9;
  // A single engine core should sustain tens of Gbps (Table 1 shape).
  EXPECT_GT(gbps, 20.0);
  EXPECT_LT(gbps, 100.0);
}

// The loss-recovery regression behind the live bulk-transfer livelock:
// with a 1 ms one-way delay the RTT (~2 ms) sits far above min_rto
// (400 us). A timer that ignores the measured RTT and re-sends every
// packet older than min_rto re-sends the whole window every 400 us; the
// RFC 6298 estimate waits out the real RTT and nothing is lost, so almost
// nothing is resent.
TEST_F(PonyE2eTest, LongRttBulkMessageDoesNotResendTheWindow) {
  NicParams nic;
  nic.propagation_delay = 1 * kMsec;
  fabric_ = std::make_unique<Fabric>(sim_.get(), nic);
  SimHost a(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  SimHost b(sim_.get(), fabric_.get(), directory_.get(), DedicatedOptions());
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "appA");
  auto cb = b.CreateClient(eb, "appB");

  InvariantChecker checker(sim_.get());
  checker.AttachFabric(fabric_.get());
  checker.SetEngineLister(
      [ea, eb] { return std::vector<const PonyEngine*>{ea, eb}; });
  checker.WatchClient(cb.get(), "B");

  CpuCostSink cost;
  uint64_t stream = ca->CreateStream(eb->address());
  checker.ExpectDeliveries("B", stream, 1);
  constexpr int64_t kBytes = 1 << 20;
  ASSERT_NE(ca->SendMessage(eb->address(), stream, 0,
                            EncodeChaosPayload(stream, 0, kBytes), &cost),
            0u);
  checker.StartSampling(100 * kUsec);
  sim_->RunFor(500 * kMsec);
  checker.StopSampling();
  checker.CheckFinal(/*require_quiesce=*/true);
  EXPECT_TRUE(checker.ok()) << checker.ViolationSummary();

  auto msg = cb->PollMessage(&cost);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->length, kBytes);
  auto completion = ca->PollCompletion(&cost);
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->status, PonyOpStatus::kOk);

  int64_t data_packets = 0;
  int64_t retransmits = 0;
  ea->ForEachFlow([&](const Flow& f) {
    data_packets += f.stats().data_packets_sent;
    retransmits += f.stats().retransmits;
  });
  EXPECT_GE(data_packets, kBytes / PonyParams{}.mtu_payload);
  EXPECT_LE(retransmits * 50, data_packets)
      << retransmits << " retransmits for " << data_packets
      << " data packets";
}

}  // namespace
}  // namespace snap
