// Live-mode tests: the Snap engines on real OS threads (src/live/) — wire
// frame codec round-trips, executor timer clamping, end-to-end echo RPC
// over both live fabrics with QoS + telemetry + tracing attached, hostile
// input to the echo driver, the UDP fabric's per-pass GSO batching
// (ordering, integrity, send counts), and the sim-vs-live parity check the
// substrate split promises: same engines, same transport, same observable
// message counts.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "src/apps/pony_apps.h"
#include "src/apps/simhost.h"
#include "src/live/live_apps.h"
#include "src/live/live_runtime.h"
#include "src/packet/wire.h"
#include "src/qos/tenant.h"

namespace snap {
namespace {

constexpr int64_t kTestDeadlineNs = 20LL * 1000 * 1000 * 1000;  // 20 s

// The echo-only and ping-only RunLivePeer roles of the two-host tests.
LivePeer EchoRole(PonyAddress to, uint64_t stream, int echoes,
                  int64_t deadline_ns) {
  LivePeer peer;
  peer.echo_to = to;
  peer.echo_stream = stream;
  peer.echoes = echoes;
  peer.deadline_ns = deadline_ns;
  return peer;
}

LivePeer PingRole(PonyAddress to, uint64_t stream, int pings, int window,
                  int64_t deadline_ns) {
  LivePeer peer;
  peer.ping_to = to;
  peer.ping_stream = stream;
  peer.pings = pings;
  peer.window = window;
  peer.deadline_ns = deadline_ns;
  return peer;
}

TEST(WireFrameTest, RoundTripsPonyPacketWithPayload) {
  Packet packet;
  packet.src_host = 3;
  packet.dst_host = 7;
  packet.steering_hash = 0xdeadbeef;
  packet.tenant = 9;
  // Timestamps (Timely's RTT inputs) ride only in wire version 2.
  packet.pony.version = 2;
  packet.pony.flow_id = 42;
  packet.pony.seq = 1001;
  packet.pony.ack = 998;
  packet.pony.type = PonyPacketType::kData;
  packet.pony.op_id = 0x1234567890abcdefULL;
  packet.pony.stream_id = 17;
  packet.pony.msg_offset = 4096;
  packet.pony.msg_length = 8192;
  packet.pony.tx_timestamp = 123456789;
  packet.pony.crc32 = 0xcafef00d;
  packet.payload_bytes = 512;
  packet.wire_bytes = 600;
  packet.data = {1, 2, 3, 4, 5, 6, 7, 8, 9};

  std::vector<uint8_t> frame;
  ASSERT_TRUE(EncodeWireFrame(packet, &frame).ok());

  StatusOr<PacketPtr> decoded = DecodeWireFrame(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  const Packet& p = **decoded;
  EXPECT_EQ(p.src_host, 3);
  EXPECT_EQ(p.dst_host, 7);
  EXPECT_EQ(p.steering_hash, 0xdeadbeefu);
  EXPECT_EQ(p.tenant, 9u);
  EXPECT_EQ(p.proto, WireProtocol::kPony);
  EXPECT_EQ(p.pony.flow_id, 42u);
  EXPECT_EQ(p.pony.seq, 1001u);
  EXPECT_EQ(p.pony.ack, 998u);
  EXPECT_EQ(p.pony.op_id, 0x1234567890abcdefULL);
  EXPECT_EQ(p.pony.stream_id, 17u);
  EXPECT_EQ(p.pony.msg_offset, 4096u);
  EXPECT_EQ(p.pony.msg_length, 8192u);
  EXPECT_EQ(p.pony.tx_timestamp, 123456789);
  EXPECT_EQ(p.pony.crc32, 0xcafef00du);
  EXPECT_EQ(p.payload_bytes, 512);
  EXPECT_EQ(p.wire_bytes, 600);
  EXPECT_EQ(p.data, packet.data);
}

TEST(WireFrameTest, RejectsTruncatedAndGarbageFrames) {
  Packet packet;
  packet.src_host = 0;
  packet.dst_host = 1;
  packet.data = {1, 2, 3};
  std::vector<uint8_t> frame;
  ASSERT_TRUE(EncodeWireFrame(packet, &frame).ok());

  // Truncations at every prefix length must fail cleanly, never crash.
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(DecodeWireFrame(frame.data(), len).ok()) << len;
  }
  // Wrong magic.
  std::vector<uint8_t> garbage(frame);
  garbage[0] ^= 0xff;
  EXPECT_FALSE(DecodeWireFrame(garbage.data(), garbage.size()).ok());
}

TEST(LiveExecutorTest, FiresTimersAndClampsPastDeadlines) {
  LiveExecutor::Options options;
  options.name = "timer-test";
  LiveExecutor exec(/*seed=*/1, /*epoch_ns=*/MonotonicTimeNs(), options);
  int fired = 0;
  // Deadline 0 is in the past by the first pass (the sim would CHECK-fail
  // here; live clamps and fires on the first pass).
  exec.ScheduleAt(0, [&] { ++fired; });
  exec.Schedule(1 * kMsec, [&] { ++fired; });
  // The test thread is the executor's one running thread.
  int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
  while (fired < 2 && MonotonicTimeNs() < deadline) {
    exec.RunPass();
    std::this_thread::yield();
  }
  EXPECT_EQ(fired, 2);
  LiveExecutor::Stats stats = exec.GetStats();
  EXPECT_EQ(stats.timer_fires, 2);
  EXPECT_GT(stats.loop_iterations, 0);
}

// Runs a two-host echo workload on `runtime` and returns (client, server)
// results. The runtime must not be started yet.
struct EchoRun {
  LiveAppResult client;
  LiveAppResult server;
};
EchoRun RunEchoWorkload(LiveRuntime* runtime, int iterations,
                        int64_t message_bytes,
                        const qos::TenantSpec* client_tenant = nullptr) {
  auto client = runtime->host(0)->CreateClient("rpc-client");
  auto server = runtime->host(1)->CreateClient("echo-server");
  PonyAddress client_addr = runtime->host(0)->engine()->address();
  PonyAddress server_addr = runtime->host(1)->engine()->address();
  // Streams bind engine state: setup phase only.
  uint64_t ping_stream = client->CreateStream(server_addr);
  uint64_t reply_stream = server->CreateStream(client_addr);
  if (client_tenant != nullptr) {
    client->SetTenant(*client_tenant);
  }

  runtime->Start();
  int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
  EchoRun run;
  LivePeer echo = EchoRole(client_addr, reply_stream, iterations, deadline);
  LivePeer ping = PingRole(server_addr, ping_stream, iterations, 4, deadline);
  ping.message_bytes = message_bytes;
  std::thread echoer([&] { run.server = RunLivePeer(server.get(), echo); });
  std::thread pinger([&] { run.client = RunLivePeer(client.get(), ping); });
  pinger.join();
  echoer.join();
  runtime->Stop();
  return run;
}

void ExpectCleanEngines(LiveRuntime* runtime) {
  for (int h = 0; h < runtime->num_hosts(); ++h) {
    const PonyEngine::Stats& stats = runtime->host(h)->engine()->stats();
    EXPECT_EQ(stats.crc_drops, 0) << "host " << h;
    EXPECT_EQ(stats.corrupt_accepted, 0) << "host " << h;
    EXPECT_EQ(stats.op_errors, 0) << "host " << h;
  }
}

TEST(LiveRuntimeTest, LoopbackEchoEndToEnd) {
  constexpr int kIterations = 100;
  constexpr int64_t kBytes = 64;
  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = LiveRuntime::FabricKind::kLoopback;
  LiveRuntime runtime(options);
  ASSERT_TRUE(runtime.Init().ok());

  qos::TenantRegistry tenants;
  qos::TenantSpec spec;
  spec.id = 7;
  spec.name = "echo";
  spec.weight = 4;
  tenants.Register(spec);
  runtime.EnableQos(&tenants);
  runtime.EnableSeriesSampling(10 * kMsec);
  runtime.EnableTracing();

  EchoRun run =
      RunEchoWorkload(&runtime, kIterations, kBytes, tenants.Find(7));

  EXPECT_FALSE(run.client.timed_out);
  EXPECT_FALSE(run.server.timed_out);
  EXPECT_EQ(run.client.rpcs_completed, kIterations);
  EXPECT_EQ(run.client.bytes_received, kIterations * kBytes);
  EXPECT_EQ(run.server.messages_received, kIterations);
  EXPECT_EQ(run.client.send_errors + run.server.send_errors, 0);
  EXPECT_EQ(run.client.rtt_ns.size(), static_cast<size_t>(kIterations));
  for (int64_t rtt : run.client.rtt_ns) {
    EXPECT_GT(rtt, 0);
  }
  ExpectCleanEngines(&runtime);

  // The transport ran over the ring fabric, not some side channel.
  LiveRuntime::FabricStats fabric = runtime.GetFabricStats();
  EXPECT_GT(fabric.delivered, 2 * kIterations);  // data + acks

  // Telemetry and tracing carried over: merged registry has engine
  // counters, merged trace has events on distinct host tracks.
  Telemetry merged;
  runtime.MergeTelemetry(&merged);
  std::map<std::string, int64_t> values = merged.SnapshotValues();
  EXPECT_FALSE(values.empty());
  auto trace = runtime.MergedTrace();
  EXPECT_FALSE(trace->events().empty());
}

TEST(LiveRuntimeTest, UdpEchoEndToEnd) {
  constexpr int kIterations = 50;
  constexpr int64_t kBytes = 64;
  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = LiveRuntime::FabricKind::kUdp;
  LiveRuntime runtime(options);
  Status init = runtime.Init();
  if (!init.ok()) {
    GTEST_SKIP() << "UDP sockets unavailable: " << init.message();
  }

  EchoRun run = RunEchoWorkload(&runtime, kIterations, kBytes);

  EXPECT_FALSE(run.client.timed_out);
  EXPECT_FALSE(run.server.timed_out);
  EXPECT_EQ(run.client.rpcs_completed, kIterations);
  EXPECT_EQ(run.server.messages_received, kIterations);
  ExpectCleanEngines(&runtime);
  LiveRuntime::FabricStats fabric = runtime.GetFabricStats();
  EXPECT_GT(fabric.delivered, 2 * kIterations);
}

// Hostile input to the echo role: before its pings, the client sends the
// echo peer a message shorter than the header and a forged echo (tag set,
// no ping of the peer's in flight). The peer drops and counts both, echoes
// neither, and every RPC that follows completes.
TEST(LiveRuntimeTest, EchoPeerDropsMalformedMessages) {
  constexpr int kIterations = 50;
  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = LiveRuntime::FabricKind::kLoopback;
  LiveRuntime runtime(options);
  ASSERT_TRUE(runtime.Init().ok());
  auto client = runtime.host(0)->CreateClient("rpc-client");
  auto server = runtime.host(1)->CreateClient("echo-server");
  PonyAddress client_addr = runtime.host(0)->engine()->address();
  PonyAddress server_addr = runtime.host(1)->engine()->address();
  uint64_t ping_stream = client->CreateStream(server_addr);
  uint64_t reply_stream = server->CreateStream(client_addr);

  runtime.Start();
  int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
  CpuCostSink sink;
  std::vector<uint8_t> forged(kLiveHeaderBytes, 0);
  std::memcpy(forged.data(), &kEchoTag, sizeof(kEchoTag));
  ASSERT_NE(client->SendMessage(server_addr, ping_stream, 4,
                                std::vector<uint8_t>(4, 0x5a), &sink),
            0u);
  ASSERT_NE(client->SendMessage(server_addr, ping_stream, kLiveHeaderBytes,
                                forged, &sink),
            0u);
  // Both are acked, so they sit in the peer's queue ahead of every ping.
  int acked = 0;
  while (acked < 2 && MonotonicTimeNs() < deadline) {
    if (auto done = client->PollCompletion(&sink)) {
      EXPECT_EQ(done->status, PonyOpStatus::kOk);
      ++acked;
    }
  }
  ASSERT_EQ(acked, 2);

  LivePeer echo = EchoRole(client_addr, reply_stream, kIterations, deadline);
  LivePeer ping = PingRole(server_addr, ping_stream, kIterations, 4, deadline);
  LiveAppResult echo_result;
  std::thread echoer([&] { echo_result = RunLivePeer(server.get(), echo); });
  LiveAppResult ping_result = RunLivePeer(client.get(), ping);
  echoer.join();
  runtime.Stop();

  EXPECT_FALSE(ping_result.timed_out);
  EXPECT_FALSE(echo_result.timed_out);
  EXPECT_EQ(echo_result.malformed, 2);
  EXPECT_EQ(echo_result.echoes_sent, kIterations);
  EXPECT_EQ(echo_result.messages_received, kIterations);
  EXPECT_EQ(ping_result.malformed, 0);
  EXPECT_EQ(ping_result.rpcs_completed, kIterations);
  EXPECT_EQ(ping_result.rtt_ns.size(), static_cast<size_t>(kIterations));
  EXPECT_EQ(ping_result.send_errors + echo_result.send_errors, 0);
  ExpectCleanEngines(&runtime);
}

// Hostile input to the ping role: a hand-written echo side answers each
// ping with a forged echo whose send timestamp lies in the future, then
// with the real echo. The pinger drops and counts every forgery, and its
// RTTs come from the real echoes only.
TEST(LiveRuntimeTest, PingPeerDropsEchoesWithForeignTimestamps) {
  constexpr int kIterations = 20;
  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = LiveRuntime::FabricKind::kLoopback;
  LiveRuntime runtime(options);
  ASSERT_TRUE(runtime.Init().ok());
  auto client = runtime.host(0)->CreateClient("rpc-client");
  auto server = runtime.host(1)->CreateClient("echo-server");
  PonyAddress client_addr = runtime.host(0)->engine()->address();
  PonyAddress server_addr = runtime.host(1)->engine()->address();
  uint64_t ping_stream = client->CreateStream(server_addr);
  uint64_t reply_stream = server->CreateStream(client_addr);

  runtime.Start();
  int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
  LivePeer ping = PingRole(server_addr, ping_stream, kIterations, 1, deadline);
  LiveAppResult ping_result;
  std::thread pinger([&] { ping_result = RunLivePeer(client.get(), ping); });
  CpuCostSink sink;
  int echoed = 0;
  while (echoed < kIterations && MonotonicTimeNs() < deadline) {
    auto msg = server->PollMessage(&sink);
    if (!msg.has_value()) {
      continue;
    }
    std::vector<uint8_t> echo = std::move(msg->data);
    uint64_t seq = 0;
    std::memcpy(&seq, echo.data(), sizeof(seq));
    seq |= kEchoTag;
    std::memcpy(echo.data(), &seq, sizeof(seq));
    std::vector<uint8_t> forged = echo;
    int64_t future = std::numeric_limits<int64_t>::max();
    std::memcpy(forged.data() + 8, &future, sizeof(future));
    // 40 sends in all: the command ring never fills.
    for (const std::vector<uint8_t>* reply : {&forged, &echo}) {
      EXPECT_NE(server->SendMessage(client_addr, reply_stream, msg->length,
                                    *reply, &sink),
                0u);
    }
    ++echoed;
  }
  pinger.join();
  runtime.Stop();

  EXPECT_EQ(echoed, kIterations);
  EXPECT_FALSE(ping_result.timed_out);
  EXPECT_EQ(ping_result.malformed, kIterations);
  EXPECT_EQ(ping_result.rpcs_completed, kIterations);
  ASSERT_EQ(ping_result.rtt_ns.size(), static_cast<size_t>(kIterations));
  for (int64_t rtt : ping_result.rtt_ns) {
    EXPECT_GT(rtt, 0);
  }
  EXPECT_EQ(ping_result.send_errors, 0);
}

// One pass's worth of frames from host 0 to hosts 1 and 2, interleaved,
// with runs of equal sizes broken by shorter and longer frames: after one
// Flush every frame arrives intact, each destination sees its frames in
// the order they were routed, and GSO needed fewer sends than datagrams.
TEST(UdpFabricTest, BatchedFramesArriveIntactInPerDestinationOrder) {
  constexpr int kHosts = 3;
  UdpFabric fabric(kHosts);
  Status init = fabric.Init();
  if (!init.ok()) {
    GTEST_SKIP() << "UDP sockets unavailable: " << init.message();
  }
  int64_t epoch = MonotonicTimeNs();
  std::vector<std::unique_ptr<LiveExecutor>> execs;
  std::vector<std::unique_ptr<Nic>> nics;
  for (int h = 0; h < kHosts; ++h) {
    execs.push_back(std::make_unique<LiveExecutor>(h + 1, epoch,
                                                   LiveExecutor::Options{}));
    nics.push_back(
        std::make_unique<Nic>(execs[h].get(), &fabric, h, NicParams{}));
    fabric.AddHost(h, nics[h].get(), execs[h].get());
  }

  const std::vector<size_t> sizes = {1984, 1984, 1984, 64,  1984, 1984,
                                     7,    1984, 1984, 512, 512,  2000};
  constexpr int kFrames = 120;
  std::vector<std::vector<int>> expected(kHosts);
  auto payload = [](int i, size_t n) {
    std::vector<uint8_t> data(n);
    for (size_t k = 0; k < n; ++k) {
      data[k] = static_cast<uint8_t>(i * 31 + k);
    }
    return data;
  };
  for (int i = 0; i < kFrames; ++i) {
    auto p = std::make_unique<Packet>();
    p->src_host = 0;
    p->dst_host = i % 3 == 0 ? 2 : 1;
    p->proto = WireProtocol::kPony;
    p->pony.version = 2;
    p->pony.seq = static_cast<uint64_t>(i);
    p->data = payload(i, sizes[i % sizes.size()]);
    p->payload_bytes = static_cast<int32_t>(p->data.size());
    p->wire_bytes = p->payload_bytes + 64;
    expected[p->dst_host].push_back(i);
    fabric.Route(std::move(p), 0);
  }
  EXPECT_EQ(fabric.Flush(0), kFrames);
  EXPECT_EQ(fabric.Flush(0), 0);  // the batch is empty again

  for (int dst = 1; dst < kHosts; ++dst) {
    std::vector<int> got;
    int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
    while (got.size() < expected[dst].size() &&
           MonotonicTimeNs() < deadline) {
      fabric.DrainTo(dst);
      while (PacketPtr p = nics[dst]->default_queue()->Poll()) {
        int i = static_cast<int>(p->pony.seq);
        EXPECT_EQ(p->src_host, 0);
        EXPECT_EQ(p->dst_host, dst);
        EXPECT_EQ(p->data, payload(i, sizes[i % sizes.size()])) << i;
        got.push_back(i);
      }
    }
    EXPECT_EQ(got, expected[dst]) << "destination " << dst;
  }
  UdpFabric::Stats stats = fabric.GetStats();
  EXPECT_EQ(stats.dropped_send, 0);
  EXPECT_EQ(stats.delivered, kFrames);
  EXPECT_LT(stats.send_calls, kFrames);
}

// A 1 MB message over the UDP runtime: per-pass batching sends its
// datagrams in far fewer send calls than there are datagrams.
TEST(LiveRuntimeTest, UdpBulkMessageTakesFewerSendCallsThanDatagrams) {
  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = LiveRuntime::FabricKind::kUdp;
  LiveRuntime runtime(options);
  Status init = runtime.Init();
  if (!init.ok()) {
    GTEST_SKIP() << "UDP sockets unavailable: " << init.message();
  }
  auto sender = runtime.host(0)->CreateClient("bulk-sender");
  auto receiver = runtime.host(1)->CreateClient("bulk-receiver");
  PonyAddress to = runtime.host(1)->engine()->address();
  uint64_t stream = sender->CreateStream(to);
  constexpr int64_t kBytes = 1 << 20;
  std::vector<uint8_t> body(kBytes);
  for (int64_t i = 0; i < kBytes; ++i) {
    body[i] = static_cast<uint8_t>(i * 13);
  }
  std::vector<uint8_t> sent = body;

  runtime.Start();
  CpuCostSink sink;
  ASSERT_NE(sender->SendMessage(to, stream, kBytes, std::move(body), &sink),
            0u);
  std::optional<PonyIncomingMessage> msg;
  bool completed = false;
  int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
  while ((!msg.has_value() || !completed) && MonotonicTimeNs() < deadline) {
    if (!msg.has_value()) {
      msg = receiver->PollMessage(&sink);
    }
    if (auto done = sender->PollCompletion(&sink)) {
      EXPECT_EQ(done->status, PonyOpStatus::kOk);
      completed = true;
    }
  }
  runtime.Stop();

  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(completed);
  EXPECT_EQ(msg->data, sent);
  ExpectCleanEngines(&runtime);
  int64_t data_packets = 0;
  runtime.host(0)->engine()->ForEachFlow([&data_packets](const Flow& f) {
    data_packets += f.stats().data_packets_sent;
  });
  EXPECT_GE(data_packets, kBytes / PonyParams{}.mtu_payload);
  LiveRuntime::FabricStats fabric = runtime.GetFabricStats();
  EXPECT_LT(fabric.send_calls, data_packets)
      << fabric.send_calls << " send calls for " << fabric.delivered
      << " datagrams";
}

// The substrate promise: the sim and live runtimes drive the SAME engine
// and transport code, so the application-observable outcome of a fixed
// workload — messages delivered, bytes delivered, zero integrity errors —
// matches exactly. Timing (RTTs, packet counts, retransmits) is excluded:
// wall clocks and modeled clocks legitimately differ.
TEST(LiveRuntimeTest, SimVsLiveParityOnEchoWorkload) {
  constexpr int kIterations = 50;
  constexpr int64_t kBytes = 64;

  // --- Sim leg ---
  Simulator sim(42);
  Fabric fabric(&sim, NicParams{});
  PonyDirectory directory;
  SimHostOptions host_options;
  host_options.group.mode = SchedulingMode::kDedicatedCores;
  host_options.group.dedicated_cores = {0};
  SimHost a(&sim, &fabric, &directory, host_options);
  SimHost b(&sim, &fabric, &directory, host_options);
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "ping");
  auto cb = b.CreateClient(eb, "echo");
  PonyEchoServerTask server("echo", b.cpu(), cb.get(), /*spin=*/true);
  server.Start();
  PonyPingTask::Options ping_options;
  ping_options.peer = eb->address();
  ping_options.iterations = kIterations;
  ping_options.message_bytes = kBytes;
  ping_options.spin = true;
  PonyPingTask ping("ping", a.cpu(), ca.get(), ping_options);
  ping.Start();
  sim.RunFor(2000 * kMsec);
  ASSERT_TRUE(ping.done());

  // --- Live leg ---
  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = LiveRuntime::FabricKind::kLoopback;
  LiveRuntime runtime(options);
  ASSERT_TRUE(runtime.Init().ok());
  EchoRun run = RunEchoWorkload(&runtime, kIterations, kBytes);
  ASSERT_FALSE(run.client.timed_out);
  ASSERT_FALSE(run.server.timed_out);

  // --- Parity: application-observable outcomes match. ---
  // Ping client observed kIterations completed RPCs in both worlds.
  EXPECT_EQ(ping.latency().count(), kIterations);
  EXPECT_EQ(run.client.rpcs_completed, kIterations);

  // Engines delivered the same messages and bytes to the apps.
  const PonyEngine::Stats& sim_client = ea->stats();
  const PonyEngine::Stats& sim_server = eb->stats();
  const PonyEngine::Stats& live_client =
      runtime.host(0)->engine()->stats();
  const PonyEngine::Stats& live_server =
      runtime.host(1)->engine()->stats();
  EXPECT_EQ(sim_server.messages_delivered, live_server.messages_delivered);
  EXPECT_EQ(sim_client.messages_delivered, live_client.messages_delivered);
  EXPECT_EQ(sim_server.message_bytes_delivered,
            live_server.message_bytes_delivered);
  EXPECT_EQ(sim_client.message_bytes_delivered,
            live_client.message_bytes_delivered);

  // Integrity invariants hold in both worlds.
  for (const PonyEngine::Stats* s :
       {&sim_client, &sim_server, &live_client, &live_server}) {
    EXPECT_EQ(s->crc_drops, 0);
    EXPECT_EQ(s->corrupt_accepted, 0);
    EXPECT_EQ(s->op_errors, 0);
  }
}

}  // namespace
}  // namespace snap
