// Live loopback soak: bidirectional RPC between two hosts — two engine
// threads plus four application threads all running concurrently — sized
// to give TSan real interleavings over every cross-thread edge: SPSC
// command/completion rings, the loopback packet rings, the executor
// park/wake handshake, and the shared atomic clocks. Run under
// -DSNAP_SANITIZE=thread this is the data-race gate for src/live/.
#include <gtest/gtest.h>

#include <thread>

#include "src/live/live_apps.h"
#include "src/live/live_runtime.h"

namespace snap {
namespace {

TEST(LiveSoakTest, BidirectionalLoopbackRpcUnderConcurrency) {
  constexpr int kIterations = 200;
  constexpr int64_t kBytes = 256;
  constexpr int64_t kDeadlineNs = 60LL * 1000 * 1000 * 1000;

  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = LiveRuntime::FabricKind::kLoopback;
  // Small rings force the occasional full-ring drop so the retransmit
  // path runs concurrently too.
  options.loopback.ring_entries = 64;
  LiveRuntime runtime(options);
  ASSERT_TRUE(runtime.Init().ok());
  runtime.EnableSeriesSampling(10 * kMsec);

  // Host 0: RPC client -> host 1 echo server, and vice versa.
  auto client0 = runtime.host(0)->CreateClient("rpc-0");
  auto server0 = runtime.host(0)->CreateClient("echo-0");
  auto client1 = runtime.host(1)->CreateClient("rpc-1");
  auto server1 = runtime.host(1)->CreateClient("echo-1");
  PonyAddress addr0 = runtime.host(0)->engine()->address();
  PonyAddress addr1 = runtime.host(1)->engine()->address();
  uint64_t ping01 = client0->CreateStream(addr1);
  uint64_t ping10 = client1->CreateStream(addr0);
  uint64_t reply0 = server0->CreateStream(addr1);
  uint64_t reply1 = server1->CreateStream(addr0);
  // Two clients share each engine, so the default sink cannot demux: bind
  // the inbound ping streams to the echo servers at the receivers (the
  // replies land on the default sinks, which are the RPC clients —
  // attached first on each host).
  runtime.host(1)->engine()->BindStream(ping01, server1.get(), addr0);
  runtime.host(0)->engine()->BindStream(ping10, server0.get(), addr1);

  runtime.Start();
  int64_t deadline = MonotonicTimeNs() + kDeadlineNs;
  LiveAppResult c0, c1, s0, s1;
  auto echo = [&](uint64_t stream, PonyAddress to) {
    LivePeer peer;
    peer.echo_to = to;
    peer.echo_stream = stream;
    peer.echoes = kIterations;
    peer.deadline_ns = deadline;
    return peer;
  };
  auto ping = [&](uint64_t stream, PonyAddress to) {
    LivePeer peer;
    peer.ping_to = to;
    peer.ping_stream = stream;
    peer.pings = kIterations;
    peer.message_bytes = kBytes;
    peer.window = 8;
    peer.deadline_ns = deadline;
    return peer;
  };
  std::thread ts1(
      [&] { s1 = RunLivePeer(server1.get(), echo(reply1, addr0)); });
  std::thread ts0(
      [&] { s0 = RunLivePeer(server0.get(), echo(reply0, addr1)); });
  std::thread tc0(
      [&] { c0 = RunLivePeer(client0.get(), ping(ping01, addr1)); });
  std::thread tc1(
      [&] { c1 = RunLivePeer(client1.get(), ping(ping10, addr0)); });
  tc0.join();
  tc1.join();
  ts0.join();
  ts1.join();
  runtime.Stop();

  for (const LiveAppResult* r : {&c0, &c1, &s0, &s1}) {
    EXPECT_FALSE(r->timed_out);
    EXPECT_EQ(r->send_errors, 0);
  }
  EXPECT_EQ(c0.rpcs_completed, kIterations);
  EXPECT_EQ(c1.rpcs_completed, kIterations);
  EXPECT_EQ(s0.messages_received, kIterations);
  EXPECT_EQ(s1.messages_received, kIterations);
  for (int h = 0; h < 2; ++h) {
    const PonyEngine::Stats& stats = runtime.host(h)->engine()->stats();
    EXPECT_EQ(stats.crc_drops, 0);
    EXPECT_EQ(stats.corrupt_accepted, 0);
    EXPECT_EQ(stats.op_errors, 0);
  }
  // Post-stop reads are exact: both executors did real work.
  for (int h = 0; h < 2; ++h) {
    LiveExecutor::Stats stats = runtime.host(h)->executor()->GetStats();
    EXPECT_GT(stats.loop_iterations, 0);
    EXPECT_GT(stats.work_items, 0);
  }
}

}  // namespace
}  // namespace snap
