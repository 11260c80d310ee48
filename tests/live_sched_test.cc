// Live scheduler e2e tests: Snap's Section 2.4 scheduling modes on real
// OS threads, asserted through the scheduler's own placement counters
// (WorkerStats.passes_by_exec — which worker actually ran which host's
// executor), the rebalancer's decision log, and the blocking
// completion-notify poll/wait counters. Plus the cross-process building
// block in-process: two LiveRuntimes owning disjoint host subsets,
// discovering each other through the UDP port-rendezvous directory.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/live/live_apps.h"
#include "src/live/live_runtime.h"
#include "src/pony/pony_engine.h"
#include "src/snap/engine_group.h"
#include "src/util/doorbell.h"

namespace snap {
namespace {

constexpr int64_t kTestDeadlineNs = 60LL * 1000 * 1000 * 1000;  // 60 s

struct EchoRun {
  LiveAppResult client;
  LiveAppResult server;
};

// Runs a client(host 2i) <-> server(host 2i+1) echo workload for every
// host pair of `runtime` concurrently and returns the per-pair results.
// The runtime must be initialized but not started.
std::vector<EchoRun> RunEchoPairs(LiveRuntime* runtime, int iterations,
                                  int64_t message_bytes, int outstanding,
                                  bool blocking = false) {
  struct Pair {
    std::unique_ptr<PonyClient> client;
    std::unique_ptr<PonyClient> server;
    std::unique_ptr<Doorbell> client_bell;
    std::unique_ptr<Doorbell> server_bell;
    LivePeer ping;
    LivePeer echo;
  };
  int num_pairs = runtime->num_hosts() / 2;
  std::vector<Pair> pairs(static_cast<size_t>(num_pairs));
  for (int i = 0; i < num_pairs; ++i) {
    Pair& p = pairs[static_cast<size_t>(i)];
    LiveHost* ch = runtime->host(2 * i);
    LiveHost* sh = runtime->host(2 * i + 1);
    p.client = ch->CreateClient("client-" + std::to_string(i));
    p.server = sh->CreateClient("server-" + std::to_string(i));
    p.ping.ping_to = sh->engine()->address();
    p.ping.ping_stream = p.client->CreateStream(p.ping.ping_to);
    p.ping.pings = iterations;
    p.ping.message_bytes = message_bytes;
    p.ping.window = outstanding;
    p.echo.echo_to = ch->engine()->address();
    p.echo.echo_stream = p.server->CreateStream(p.echo.echo_to);
    p.echo.echoes = iterations;
    if (blocking) {
      p.client_bell = std::make_unique<Doorbell>();
      p.server_bell = std::make_unique<Doorbell>();
      p.client->BindDoorbell(p.client_bell.get());
      p.server->BindDoorbell(p.server_bell.get());
      p.ping.doorbell = p.client_bell.get();
      p.echo.doorbell = p.server_bell.get();
    }
  }

  runtime->Start();
  int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
  std::vector<EchoRun> runs(static_cast<size_t>(num_pairs));
  std::vector<std::thread> threads;
  for (int i = 0; i < num_pairs; ++i) {
    Pair& p = pairs[static_cast<size_t>(i)];
    EchoRun& run = runs[static_cast<size_t>(i)];
    p.ping.deadline_ns = deadline;
    p.echo.deadline_ns = deadline;
    threads.emplace_back(
        [&p, &run] { run.server = RunLivePeer(p.server.get(), p.echo); });
    threads.emplace_back(
        [&p, &run] { run.client = RunLivePeer(p.client.get(), p.ping); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  runtime->Stop();
  return runs;
}

void ExpectAllCompleted(const std::vector<EchoRun>& runs, int iterations) {
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_FALSE(runs[i].client.timed_out) << "pair " << i;
    EXPECT_FALSE(runs[i].server.timed_out) << "pair " << i;
    EXPECT_EQ(runs[i].client.rpcs_completed, iterations) << "pair " << i;
    EXPECT_EQ(runs[i].client.send_errors + runs[i].server.send_errors, 0)
        << "pair " << i;
  }
}

// Dedicated mode, one worker per executor: worker w ran executor w and
// nothing else — the "burn a core per engine" placement, read off the
// scheduler's own pass counters.
TEST(LiveSchedTest, DedicatedModePlacesOneEnginePerWorker) {
  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = LiveRuntime::FabricKind::kLoopback;
  options.scheduler.mode = SchedulingMode::kDedicatedCores;
  LiveRuntime runtime(options);
  ASSERT_TRUE(runtime.Init().ok());
  std::vector<EchoRun> runs =
      RunEchoPairs(&runtime, /*iterations=*/100, /*message_bytes=*/64,
                   /*outstanding=*/4);
  ExpectAllCompleted(runs, 100);

  LiveScheduler* sched = runtime.scheduler();
  ASSERT_EQ(sched->num_workers(), 2);
  EXPECT_EQ(sched->migrations(), 0);
  for (int w = 0; w < 2; ++w) {
    LiveScheduler::WorkerStats stats = sched->GetWorkerStats(w);
    ASSERT_EQ(stats.passes_by_exec.size(), 2u);
    EXPECT_GT(stats.passes_by_exec[static_cast<size_t>(w)], 0)
        << "worker " << w << " never ran its own executor";
    EXPECT_EQ(stats.passes_by_exec[static_cast<size_t>(1 - w)], 0)
        << "worker " << w << " ran a foreign executor";
  }
}

// Dedicated mode with fewer workers than executors round-robins: one
// worker hosts both engines, and both make progress on it.
TEST(LiveSchedTest, DedicatedSingleWorkerSharesExecutors) {
  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = LiveRuntime::FabricKind::kLoopback;
  options.scheduler.mode = SchedulingMode::kDedicatedCores;
  options.scheduler.dedicated_workers = 1;
  LiveRuntime runtime(options);
  ASSERT_TRUE(runtime.Init().ok());
  std::vector<EchoRun> runs =
      RunEchoPairs(&runtime, /*iterations=*/100, /*message_bytes=*/64,
                   /*outstanding=*/4);
  ExpectAllCompleted(runs, 100);

  LiveScheduler* sched = runtime.scheduler();
  ASSERT_EQ(sched->num_workers(), 1);
  LiveScheduler::WorkerStats stats = sched->GetWorkerStats(0);
  ASSERT_EQ(stats.passes_by_exec.size(), 2u);
  EXPECT_GT(stats.passes_by_exec[0], 0);
  EXPECT_GT(stats.passes_by_exec[1], 0);
}

// Spreading mode: same one-to-one placement as dedicated, but workers
// park immediately when idle — the scale-to-zero mode must actually park
// during a closed-loop workload full of idle gaps.
TEST(LiveSchedTest, SpreadingModeParksWhenIdle) {
  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = LiveRuntime::FabricKind::kLoopback;
  options.scheduler.mode = SchedulingMode::kSpreadingEngines;
  LiveRuntime runtime(options);
  ASSERT_TRUE(runtime.Init().ok());
  std::vector<EchoRun> runs =
      RunEchoPairs(&runtime, /*iterations=*/200, /*message_bytes=*/64,
                   /*outstanding=*/1);  // ping-pong: idle gap every RPC
  ExpectAllCompleted(runs, 200);

  LiveScheduler* sched = runtime.scheduler();
  ASSERT_EQ(sched->num_workers(), 2);
  EXPECT_EQ(sched->migrations(), 0);
  int64_t total_parks = 0;
  for (int w = 0; w < 2; ++w) {
    LiveScheduler::WorkerStats stats = sched->GetWorkerStats(w);
    ASSERT_EQ(stats.passes_by_exec.size(), 2u);
    EXPECT_GT(stats.passes_by_exec[static_cast<size_t>(w)], 0);
    EXPECT_EQ(stats.passes_by_exec[static_cast<size_t>(1 - w)], 0);
    total_parks += stats.parks;
  }
  EXPECT_GT(total_parks, 0) << "spreading workers never parked";
}

// Compacting mode end-to-end: four executors share the bounded worker
// pool (all start compacted on worker 0) and a two-pair echo workload
// with deliberately truncated poll budgets — backlog stays visible to
// the rebalancer — must complete exactly, with every executor polled,
// whether or not the rebalancer chose to migrate on this machine.
TEST(LiveSchedTest, CompactingEchoCompletesWithAllExecutorsPolled) {
  constexpr int kIterations = 400;
  LiveRuntime::Options options;
  options.num_hosts = 4;  // two concurrent echo pairs
  options.fabric = LiveRuntime::FabricKind::kLoopback;
  options.scheduler.mode = SchedulingMode::kCompactingEngines;
  options.scheduler.compacting_slo_ns = 10'000;
  options.scheduler.rebalance_interval_ns = 100'000;
  // Queue delay is sampled after each engine poll: with the default
  // budgets a pass drains everything and the rebalancer only ever sees
  // an empty queue. Small poll/batch budgets truncate polls under load,
  // so the backlog (and its delay) stays visible at the sampling point.
  options.executor.poll_budget = 2 * kUsec;
  options.pony.rx_batch = 2;
  options.pony.cmd_batch = 2;
  LiveRuntime runtime(options);
  ASSERT_TRUE(runtime.Init().ok());
  std::vector<EchoRun> runs =
      RunEchoPairs(&runtime, kIterations, /*message_bytes=*/1024,
                   /*outstanding=*/16);
  ExpectAllCompleted(runs, kIterations);

  LiveScheduler* sched = runtime.scheduler();
  for (const LiveScheduler::Decision& d : sched->decisions()) {
    EXPECT_NE(d.from, d.to);
    EXPECT_GE(d.engine, 0);
    EXPECT_LT(d.engine, 4);
  }
  // Every executor ran somewhere; placement counters survive whatever
  // migrations happened.
  std::vector<int64_t> passes_per_exec(4, 0);
  for (int w = 0; w < sched->num_workers(); ++w) {
    LiveScheduler::WorkerStats stats = sched->GetWorkerStats(w);
    ASSERT_EQ(stats.passes_by_exec.size(), 4u);
    for (size_t e = 0; e < 4; ++e) {
      passes_per_exec[e] += stats.passes_by_exec[e];
    }
  }
  for (size_t e = 0; e < 4; ++e) {
    EXPECT_GT(passes_per_exec[e], 0) << "executor " << e;
  }
}

// Synthetic engine whose queueing delay is set by the test: the
// deterministic way to drive the compacting rebalancer through its full
// scale-out -> compact-back cycle regardless of machine speed. Also
// checks the one-thread-at-a-time executor contract directly.
class LoadEngine : public Engine {
 public:
  explicit LoadEngine(std::string name) : Engine(std::move(name)) {}

  // Any thread: the queueing delay the engine reports (0 = idle).
  void SetDelay(int64_t delay_ns) {
    delay_ns_.store(delay_ns, std::memory_order_release);
    NotifyWork();
  }

  PollResult Poll(SimTime now, SimDuration budget_ns) override {
    if (in_poll_.exchange(true, std::memory_order_acq_rel)) {
      concurrent_polls_.fetch_add(1, std::memory_order_relaxed);
    }
    RunMailbox();
    PollResult result;
    if (delay_ns_.load(std::memory_order_acquire) > 0) {
      result.cpu_ns = 1000;
      result.work_items = 1;
      polls_.fetch_add(1, std::memory_order_relaxed);
    }
    in_poll_.store(false, std::memory_order_release);
    return result;
  }

  bool HasWork(SimTime now) const override {
    return delay_ns_.load(std::memory_order_acquire) > 0;
  }

  SimDuration QueueingDelay(SimTime now) const override {
    return delay_ns_.load(std::memory_order_acquire);
  }

  int64_t polls() const { return polls_.load(std::memory_order_relaxed); }
  int64_t concurrent_polls() const {
    return concurrent_polls_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> delay_ns_{0};
  std::atomic<int64_t> polls_{0};
  std::atomic<bool> in_poll_{false};
  std::atomic<int64_t> concurrent_polls_{0};
};

// The migration protocol itself: two executors compacted on worker 0;
// one breaches the SLO -> the rebalancer scales it out to worker 1
// (recording the observed delay); load subsides -> after
// CompactingPolicy::kCalmRounds calm ticks it compacts back to worker 0. Both cross-thread handoffs land within
// the deadline, the moved executor accrues passes on both workers, and
// no two threads ever polled an engine simultaneously.
TEST(LiveSchedTest, CompactingMigratesOnSloBreachAndCompactsBack) {
  LiveScheduler::Options options;
  options.mode = SchedulingMode::kCompactingEngines;
  options.max_workers = 2;
  options.compacting_slo_ns = 40'000;
  options.rebalance_interval_ns = 100'000;

  int64_t epoch = MonotonicTimeNs();
  LiveExecutor::Options exec_options;
  exec_options.name = "exec-a";
  LiveExecutor exec_a(/*seed=*/1, epoch, exec_options);
  exec_options.name = "exec-b";
  LiveExecutor exec_b(/*seed=*/2, epoch, exec_options);
  LoadEngine engine_a("load-a");
  LoadEngine engine_b("load-b");
  exec_a.AddEngine(&engine_a);
  exec_b.AddEngine(&engine_b);

  LiveScheduler sched(epoch, options);
  ASSERT_EQ(sched.AddExecutor(&exec_a), 0);
  ASSERT_EQ(sched.AddExecutor(&exec_b), 1);
  sched.Start();

  // Both busy on worker 0; executor 1 far past the SLO -> scale-out.
  engine_a.SetDelay(1'000);
  engine_b.SetDelay(500'000);
  int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
  while (sched.migrations() < 1 && MonotonicTimeNs() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GE(sched.migrations(), 1) << "SLO breach never scaled out";

  // Load subsides -> executor 1 compacts back to the primary.
  engine_a.SetDelay(0);
  engine_b.SetDelay(0);
  while (sched.migrations() < 2 && MonotonicTimeNs() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GE(sched.migrations(), 2) << "calm executor never compacted back";
  sched.Stop();

  bool scaled_out = false;
  bool compacted = false;
  for (const LiveScheduler::Decision& d : sched.decisions()) {
    EXPECT_NE(d.from, d.to);
    if (d.kind == LiveScheduler::Decision::kScaleOut) {
      scaled_out = true;
      EXPECT_EQ(d.engine, 1);
      EXPECT_GT(d.delay_ns, options.compacting_slo_ns);
    } else {
      compacted = true;
      EXPECT_EQ(d.engine, 1);
      EXPECT_EQ(d.to, 0);
    }
  }
  EXPECT_TRUE(scaled_out);
  EXPECT_TRUE(compacted);

  // The moved executor ran on both workers; the stay-put one only on the
  // primary. The engines were never polled by two threads at once.
  ASSERT_EQ(sched.num_workers(), 2);
  LiveScheduler::WorkerStats w0 = sched.GetWorkerStats(0);
  LiveScheduler::WorkerStats w1 = sched.GetWorkerStats(1);
  ASSERT_EQ(w0.passes_by_exec.size(), 2u);
  ASSERT_EQ(w1.passes_by_exec.size(), 2u);
  EXPECT_GT(w0.passes_by_exec[0], 0);
  EXPECT_EQ(w1.passes_by_exec[0], 0);
  EXPECT_GT(w0.passes_by_exec[1], 0);
  EXPECT_GT(w1.passes_by_exec[1], 0);
  EXPECT_GT(w1.migrations_in, 0);
  EXPECT_EQ(engine_a.concurrent_polls(), 0);
  EXPECT_EQ(engine_b.concurrent_polls(), 0);
  EXPECT_GT(engine_b.polls(), 0);
}

// A compacting pool sized past its load: one idle executor on worker 0
// leaves workers 1..3 empty. An empty worker has no timer or peer to
// watch, so it parks until rung (an arrival or Stop()) instead of waking
// every max_park_ns for nothing.
TEST(LiveSchedTest, CompactingEmptyWorkersParkUntilRung) {
  LiveScheduler::Options options;
  options.mode = SchedulingMode::kCompactingEngines;
  options.max_workers = 4;
  const int64_t epoch = MonotonicTimeNs();
  LiveExecutor exec(/*seed=*/1, epoch, LiveExecutor::Options{});
  LiveScheduler sched(epoch, options);
  sched.AddExecutor(&exec);
  sched.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  sched.Stop();

  ASSERT_EQ(sched.num_workers(), 4);
  EXPECT_EQ(sched.migrations(), 0);
  EXPECT_GT(sched.GetWorkerStats(0).passes_by_exec[0], 0);
  for (int w = 1; w < 4; ++w) {
    EXPECT_LE(sched.GetWorkerStats(w).parks, 3)
        << "empty worker " << w << " woke without being rung";
  }
}

// The idle knobs have one home: a LiveRuntime hands its scheduler
// options to the scheduler unchanged.
TEST(LiveSchedTest, RuntimePassesSchedulerIdleKnobsThrough) {
  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = LiveRuntime::FabricKind::kLoopback;
  options.scheduler.spin_before_park_ns = 7'000;
  options.scheduler.max_park_ns = 300'000;
  LiveRuntime runtime(options);
  EXPECT_EQ(runtime.scheduler()->options().spin_before_park_ns, 7'000);
  EXPECT_EQ(runtime.scheduler()->options().max_park_ns, 300'000);
}

// Section 3.1's completion notification: with the client doorbell bound,
// the app thread sleeps between completions instead of spin-polling. The
// poll-pass budget (30 passes/RPC, vs millions when spinning) is the
// ~0% busy-poll acceptance bar; waits > 0 proves it actually slept.
TEST(LiveSchedTest, BlockingNotifyNearZeroBusyPoll) {
  constexpr int kIterations = 300;
  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = LiveRuntime::FabricKind::kLoopback;
  options.scheduler.mode = SchedulingMode::kSpreadingEngines;
  LiveRuntime runtime(options);
  ASSERT_TRUE(runtime.Init().ok());
  std::vector<EchoRun> runs =
      RunEchoPairs(&runtime, kIterations, /*message_bytes=*/64,
                   /*outstanding=*/16, /*blocking=*/true);
  ExpectAllCompleted(runs, kIterations);
  EXPECT_GT(runs[0].client.waits, 0) << "client never slept on the bell";
  EXPECT_LT(runs[0].client.poll_passes, kIterations * 30)
      << "blocking client busy-polled";
  EXPECT_GT(runs[0].server.waits, 0);
}

// Every scheduling mode completes the echo e2e over UDP sockets too (the
// fabric whose remote peers cannot ring a parked worker's doorbell —
// bounded max_park_ns covers the gap), and reports itself in ProfileJson.
class LiveSchedModeTest
    : public ::testing::TestWithParam<SchedulingMode> {};

TEST_P(LiveSchedModeTest, UdpEchoCompletesAndProfileReportsMode) {
  LiveRuntime::Options options;
  options.num_hosts = 2;
  options.fabric = LiveRuntime::FabricKind::kUdp;
  options.scheduler.mode = GetParam();
  LiveRuntime runtime(options);
  Status init = runtime.Init();
  if (!init.ok()) {
    GTEST_SKIP() << "UDP sockets unavailable: " << init.message();
  }
  std::vector<EchoRun> runs =
      RunEchoPairs(&runtime, /*iterations=*/100, /*message_bytes=*/64,
                   /*outstanding=*/4);
  ExpectAllCompleted(runs, 100);
  std::string profile = runtime.scheduler()->ProfileJson();
  EXPECT_NE(profile.find(SchedulingModeName(GetParam())),
            std::string::npos)
      << profile;
}

INSTANTIATE_TEST_SUITE_P(
    Modes, LiveSchedModeTest,
    ::testing::Values(SchedulingMode::kDedicatedCores,
                      SchedulingMode::kSpreadingEngines,
                      SchedulingMode::kCompactingEngines));

// Binds an ephemeral UDP port, releases it, and returns it — a test-only
// rendezvous port picker (tiny reuse race, fine for CI).
uint16_t FreeUdpPort() {
  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    return 0;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  uint16_t port = 0;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    socklen_t len = sizeof(addr);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port = ntohs(addr.sin_port);
    }
  }
  close(fd);
  return port;
}

// The cross-process building block, in-process: two LiveRuntimes each own
// ONE host of a two-host rack and learn the other's endpoint + wire range
// through the port-rendezvous directory (runtime A serves it). Echo RPCs
// then flow between engines living in different runtimes — different
// PonyDirectories, different schedulers — over real UDP.
TEST(LiveSchedTest, UdpCrossRuntimeEchoRendezvous) {
  constexpr int kIterations = 100;
  uint16_t dir_port = FreeUdpPort();
  ASSERT_NE(dir_port, 0);

  auto make_options = [&](std::vector<int> local, bool serve) {
    LiveRuntime::Options options;
    options.num_hosts = 2;
    options.local_hosts = std::move(local);
    options.fabric = LiveRuntime::FabricKind::kUdp;
    options.scheduler.mode = SchedulingMode::kSpreadingEngines;
    options.udp.directory_address = "127.0.0.1";
    options.udp.directory_port = dir_port;
    options.udp.directory_server = serve;
    return options;
  };
  LiveRuntime node_a(make_options({0}, /*serve=*/true));
  LiveRuntime node_b(make_options({1}, /*serve=*/false));

  // Rendezvous blocks until both sides announce: Init concurrently.
  Status init_a, init_b;
  std::thread ta([&] { init_a = node_a.Init(); });
  std::thread tb([&] { init_b = node_b.Init(); });
  ta.join();
  tb.join();
  if (!init_a.ok() || !init_b.ok()) {
    GTEST_SKIP() << "UDP rendezvous unavailable: "
                 << (init_a.ok() ? init_b.message() : init_a.message());
  }
  ASSERT_NE(node_a.host(0), nullptr);
  EXPECT_EQ(node_a.host(1), nullptr);  // remote: lives in node_b
  ASSERT_NE(node_b.host(1), nullptr);
  EXPECT_EQ(node_b.host(0), nullptr);

  // Engine ids are host + 1 by construction, so the remote address needs
  // no coordination beyond the rendezvous itself.
  PonyAddress addr_a{0, 1};
  PonyAddress addr_b{1, 2};
  auto client = node_a.host(0)->CreateClient("xproc-client");
  auto server = node_b.host(1)->CreateClient("xproc-server");
  uint64_t ping_stream = client->CreateStream(addr_b);
  uint64_t reply_stream = server->CreateStream(addr_a);

  node_a.Start();
  node_b.Start();
  int64_t deadline = MonotonicTimeNs() + kTestDeadlineNs;
  LiveAppResult client_result, server_result;
  LivePeer echo;
  echo.echo_to = addr_a;
  echo.echo_stream = reply_stream;
  echo.echoes = kIterations;
  echo.deadline_ns = deadline;
  LivePeer ping;
  ping.ping_to = addr_b;
  ping.ping_stream = ping_stream;
  ping.pings = kIterations;
  ping.window = 4;
  ping.deadline_ns = deadline;
  std::thread echoer([&] { server_result = RunLivePeer(server.get(), echo); });
  client_result = RunLivePeer(client.get(), ping);
  // Join the server before stopping either runtime: its final send
  // completions need the client-side engine alive to ack retransmits.
  echoer.join();
  node_a.Stop();
  node_b.Stop();

  EXPECT_FALSE(client_result.timed_out);
  EXPECT_FALSE(server_result.timed_out);
  EXPECT_EQ(client_result.rpcs_completed, kIterations);
  EXPECT_EQ(server_result.messages_received, kIterations);
  EXPECT_EQ(client_result.send_errors + server_result.send_errors, 0);
  // Both fabrics moved real datagrams. Node A received every echo reply
  // over UDP; B's acks may all ride on those replies (standalone acks are
  // not a property to require), so A can see exactly kIterations. Node B
  // also received at least one standalone ack: the last reply's send
  // completion waits for one, and A has no later ping to carry it.
  EXPECT_GE(node_a.GetFabricStats().delivered, kIterations);
  EXPECT_GT(node_b.GetFabricStats().delivered, kIterations);
  // Acks crossed in both directions: B acked every ping A sent.
  Flow* a_to_b = node_a.host(0)->engine()->FindFlow(addr_b);
  ASSERT_NE(a_to_b, nullptr);
  EXPECT_GE(a_to_b->stats().data_packets_sent, kIterations);
  EXPECT_EQ(a_to_b->unacked_packets(), 0u);
  Flow* b_to_a = node_b.host(1)->engine()->FindFlow(addr_a);
  ASSERT_NE(b_to_a, nullptr);
  EXPECT_GE(b_to_a->stats().data_packets_sent, kIterations);
  EXPECT_EQ(b_to_a->unacked_packets(), 0u);
}

}  // namespace
}  // namespace snap
