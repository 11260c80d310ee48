// Parallel sharded simulation:
//  - conservative epoch safety: no arrival event ever executes before a
//    lagging shard's horizon, and delivery times are exactly the serial
//    model's (wire + propagation + serialization + NIC pipeline) even
//    when the destination shard is otherwise idle (skip-ahead epochs);
//  - cross-shard packet conservation, audited by the InvariantChecker
//    over a full chaos workload split across shards;
//  - shard-count-invariant results: final telemetry snapshots, delivered
//    counts and trace digests do not depend on how hosts are placed;
//  - threaded execution is bit-identical to sequential shard execution
//    (the property that makes the TSan matrix meaningful: same results,
//    real data races surface as tool errors, not flaky outputs).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "bench/sharded_rack.h"
#include "src/net/shard_net.h"
#include "src/packet/packet.h"
#include "src/packet/packet_pool.h"
#include "src/sim/placement.h"
#include "src/sim/sharded_sim.h"
#include "src/testing/seed_sweep.h"

namespace snap {
namespace {

// Serial-model delivery time for one packet through an uncongested port.
SimTime ExpectedDelivery(const NicParams& p, SimTime wire_time,
                         int64_t wire_bytes) {
  return wire_time + p.propagation_delay +
         SerializationDelay(wire_bytes, p.link_gbps) + p.nic_pipeline_delay;
}

TEST(ShardedSimTest, EpochHorizonSafetyAndExactDeliveryTimes) {
  ShardedSim::Options options;
  options.num_shards = 2;
  options.lookahead = NicParams{}.propagation_delay;
  ShardedSim sharded(options);
  ShardedFabricGroup group(&sharded, NicParams{});
  Nic* nic0 = group.fabric(0)->AddHost();
  group.fabric(1)->AddHost();
  ASSERT_EQ(group.shard_of_host(0), 0);
  ASSERT_EQ(group.shard_of_host(1), 1);

  // Host 1's NIC only exists on shard 1; shard 0 sees a placeholder.
  EXPECT_TRUE(group.fabric(1)->host_is_local(1));
  EXPECT_FALSE(group.fabric(0)->host_is_local(1));
  EXPECT_EQ(group.fabric(0)->num_hosts(), 2);
  EXPECT_EQ(group.fabric(1)->num_hosts(), 2);

  // Packets leave host 0's wire at sparse times (the destination shard is
  // idle in between, so epochs skip ahead); each must arrive exactly when
  // the serial fabric model says, and never before the sender's horizon.
  const NicParams params{};
  std::vector<SimTime> wire_times = {1000, 5000, 400000, 7000000};
  const int64_t kWireBytes = 1500;
  struct Arrival {
    SimTime rx_time;
    SimTime shard_now;
  };
  std::vector<Arrival> arrivals;
  group.fabric(1)->nic(1)->SetRxTap([&](const Packet& p) {
    arrivals.push_back({p.rx_time, group.fabric(1)->sim()->now()});
  });
  // Per-shard packet pool, as sharded workloads are expected to use: the
  // debug owner-thread assertion rides along in this test.
  PacketPool pool(64, "shard0");
  for (SimTime t : wire_times) {
    sharded.sim(0)->ScheduleAt(t, [&, t] {
      PacketPtr p = pool.Allocate();
      ASSERT_NE(p, nullptr);
      p->src_host = 0;
      p->dst_host = 1;
      p->wire_bytes = static_cast<int32_t>(kWireBytes);
      group.fabric(0)->Route(std::move(p), t);
    });
  }

  sharded.RunFor(10 * kMsec);

  ASSERT_EQ(arrivals.size(), wire_times.size());
  for (size_t i = 0; i < wire_times.size(); ++i) {
    SimTime expected = ExpectedDelivery(params, wire_times[i], kWireBytes);
    EXPECT_EQ(arrivals[i].rx_time, expected)
        << "packet " << i << " arrived at the wrong simulated time";
    // The arrival executed at its own timestamp (the event was scheduled
    // at a barrier before the destination shard reached it — conservative
    // sync never schedules into a shard's past).
    EXPECT_EQ(arrivals[i].shard_now, expected);
    // And the arrival is beyond the source's wire time by at least the
    // lookahead: the epoch horizon proof in ShardedSim::RunUntil.
    EXPECT_GE(arrivals[i].rx_time, wire_times[i] + options.lookahead);
  }
  EXPECT_EQ(group.exchange_stats().handoffs,
            static_cast<int64_t>(wire_times.size()));
  EXPECT_EQ(group.exchange_stats().cross_shard,
            static_cast<int64_t>(wire_times.size()));
  EXPECT_EQ(group.AggregateStats().delivered,
            static_cast<int64_t>(wire_times.size()));
  // Idle skip-ahead kept the epoch count near the number of distinct
  // event times, not sim_time / lookahead (~10000 epochs if it stepped
  // blindly).
  EXPECT_LT(sharded.progress().epochs, 100);
  (void)nic0;
}

TEST(ShardedSimTest, EagerLocalDeliveryBypassesBarriers) {
  // Both hosts on shard 0 of a 2-shard sim: every packet is same-shard,
  // delivered through the eager path (port sequencer), never a ring.
  ShardedSim::Options options;
  options.num_shards = 2;
  options.lookahead = NicParams{}.propagation_delay;
  ShardedSim sharded(options);
  ShardedFabricGroup group(&sharded, NicParams{});
  group.fabric(0)->AddHost();
  group.fabric(0)->AddHost();
  ASSERT_EQ(group.shard_of_host(0), 0);
  ASSERT_EQ(group.shard_of_host(1), 0);

  const NicParams params{};
  std::vector<SimTime> wire_times = {1000, 5000, 400000, 7000000};
  const int64_t kWireBytes = 1500;
  std::vector<SimTime> arrivals;
  group.fabric(0)->nic(1)->SetRxTap(
      [&](const Packet& p) { arrivals.push_back(p.rx_time); });
  PacketPool pool(64, "shard0");
  for (SimTime t : wire_times) {
    sharded.sim(0)->ScheduleAt(t, [&, t] {
      PacketPtr p = pool.Allocate();
      ASSERT_NE(p, nullptr);
      p->src_host = 0;
      p->dst_host = 1;
      p->wire_bytes = static_cast<int32_t>(kWireBytes);
      group.fabric(0)->Route(std::move(p), t);
    });
  }
  sharded.RunFor(10 * kMsec);

  ASSERT_EQ(arrivals.size(), wire_times.size());
  for (size_t i = 0; i < wire_times.size(); ++i) {
    // Exact serial delivery times: the eager path changes no timestamps.
    EXPECT_EQ(arrivals[i], ExpectedDelivery(params, wire_times[i],
                                            kWireBytes));
  }
  const ShardedFabricGroup::ExchangeStats xs = group.exchange_stats();
  EXPECT_EQ(xs.local_direct, static_cast<int64_t>(wire_times.size()));
  EXPECT_EQ(xs.cross_shard, 0);
  // No barrier ever moved a packet.
  EXPECT_EQ(xs.exchanges, 0);
}

TEST(ShardedSimTest, ClusteredLookaheadLengthensEpochs) {
  // Two hosts pinging each other across shards, once with flat topology
  // (lookahead = propagation_delay) and once with each host in its own
  // cluster and a large inter-cluster extra delay. The per-pair lookahead
  // matrix must exploit the extra distance: materially fewer epochs for
  // the same traffic pattern.
  auto run = [](NicParams params) {
    ShardedSim::Options options;
    options.num_shards = 2;
    options.lookahead = params.propagation_delay;
    ShardedSim sharded(options);
    ShardedFabricGroup group(&sharded, params);
    group.fabric(0)->AddHost();
    group.fabric(1)->AddHost();
    int64_t delivered = 0;
    group.fabric(1)->nic(1)->SetRxTap([&](const Packet&) { ++delivered; });
    PacketPool pool(2048, "src");
    // One departure per microsecond for a millisecond.
    for (int i = 0; i < 1000; ++i) {
      SimTime t = 1000 + i * kUsec;
      sharded.sim(0)->ScheduleAt(t, [&, t] {
        PacketPtr p = pool.Allocate();
        ASSERT_NE(p, nullptr);
        p->src_host = 0;
        p->dst_host = 1;
        p->wire_bytes = 100;
        group.fabric(0)->Route(std::move(p), t);
      });
    }
    sharded.RunFor(4 * kMsec);
    EXPECT_EQ(delivered, 1000);
    return sharded.progress().epochs;
  };
  NicParams flat;
  NicParams clustered;
  clustered.hosts_per_cluster = 1;  // every host its own cluster
  clustered.inter_cluster_extra_delay = 8 * kUsec;
  int64_t flat_epochs = run(flat);
  int64_t clustered_epochs = run(clustered);
  // Cross-cluster lookahead is (prop + 8us) instead of prop: epochs cover
  // several packets instead of one.
  EXPECT_LT(clustered_epochs * 3, flat_epochs);
}

TEST(ShardedSimTest, RingOverflowSpillPreservesOrder) {
  // One epoch emits far more handoffs than the per-channel rings hold
  // (kChannelBatches * kHandoffBatchSize = 1024): the overflow spills,
  // and delivery order at the destination is still exactly emission
  // order.
  ShardedSim::Options options;
  options.num_shards = 2;
  options.lookahead = NicParams{}.propagation_delay;
  ShardedSim sharded(options);
  ShardedFabricGroup group(&sharded, NicParams{});
  group.fabric(0)->AddHost();
  group.fabric(1)->AddHost();

  const int kPackets = 2500;
  std::vector<uint64_t> received;
  group.fabric(1)->nic(1)->SetRxTap(
      [&](const Packet& p) { received.push_back(p.steering_hash); });
  PacketPool pool(4096, "src");
  for (int i = 0; i < kPackets; ++i) {
    SimTime t = 1000 + i;  // 1ns apart: all inside one epoch
    sharded.sim(0)->ScheduleAt(t, [&, t, i] {
      PacketPtr p = pool.Allocate();
      ASSERT_NE(p, nullptr);
      p->src_host = 0;
      p->dst_host = 1;
      p->wire_bytes = 64;
      p->steering_hash = static_cast<uint64_t>(i);
      group.fabric(0)->Route(std::move(p), t);
    });
  }
  sharded.RunFor(10 * kMsec);

  ASSERT_EQ(received.size(), static_cast<size_t>(kPackets));
  for (int i = 0; i < kPackets; ++i) {
    ASSERT_EQ(received[i], static_cast<uint64_t>(i))
        << "delivery order diverged from emission order at " << i;
  }
  const ShardedFabricGroup::ExchangeStats xs = group.exchange_stats();
  EXPECT_EQ(xs.cross_shard, kPackets);
  EXPECT_GT(xs.ring_overflow, 0) << "burst never overflowed the ring; "
                                    "the spill path was not exercised";
}

TEST(ShardedSimTest, CrossShardPacketConservationUnderChaos) {
  SeedSweepOptions options;
  options.num_seeds = 1;
  options.check_replay = false;
  options.shards = 4;
  SeedSweepRunner runner(options);
  auto profiles = SeedSweepRunner::DefaultProfiles();
  // The combined profile: loss, reorder, duplication, corruption, jitter.
  SweepRunResult result = runner.RunOne(7, profiles.back());
  EXPECT_TRUE(result.ok) << "invariant violations in sharded run";
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.delivered_messages, 0);
  // Hosts 0 and 1 live on shards 0 and 1: every data/ack packet crossed
  // shards through the barrier exchange.
  EXPECT_GT(result.exchange_cross_shard, 0);
  EXPECT_GT(result.epochs, 0);
}

TEST(ShardedSimTest, ShardCountInvariantFinalState) {
  auto run = [](int shards) {
    SeedSweepOptions options;
    options.num_seeds = 1;
    options.check_replay = false;
    options.shards = shards;
    SeedSweepRunner runner(options);
    auto profiles = SeedSweepRunner::DefaultProfiles();
    return runner.RunOne(11, profiles.back());
  };
  SweepRunResult serial = run(1);
  EXPECT_TRUE(serial.ok);
  for (int shards : {2, 4}) {
    SweepRunResult sharded = run(shards);
    EXPECT_TRUE(sharded.ok);
    EXPECT_EQ(serial.trace_digest, sharded.trace_digest) << shards;
    EXPECT_EQ(serial.delivered_messages, sharded.delivered_messages);
    EXPECT_EQ(serial.retransmits, sharded.retransmits);
    // Merged telemetry is byte-stable across shard counts (same names,
    // same values, deterministically name-ordered).
    EXPECT_EQ(serial.telemetry, sharded.telemetry) << shards << " shards";
  }
}

TEST(ShardedSimTest, ThreadedExecutionBitIdenticalToSequential) {
  auto run = [](int threads) {
    SeedSweepOptions options;
    options.num_seeds = 1;
    options.check_replay = false;
    options.shards = 4;
    options.shard_threads = threads;
    SeedSweepRunner runner(options);
    auto profiles = SeedSweepRunner::DefaultProfiles();
    return runner.RunOne(23, profiles.back());
  };
  SweepRunResult sequential = run(0);
  SweepRunResult threaded = run(4);
  EXPECT_TRUE(sequential.ok);
  EXPECT_TRUE(threaded.ok);
  EXPECT_EQ(sequential.trace_digest, threaded.trace_digest);
  EXPECT_EQ(sequential.delivered_messages, threaded.delivered_messages);
  EXPECT_EQ(sequential.telemetry, threaded.telemetry);
  EXPECT_EQ(sequential.epochs, threaded.epochs);
  EXPECT_EQ(sequential.exchange_handoffs, threaded.exchange_handoffs);
}

TEST(ShardedSimTest, MergedTelemetryAtSixteenShardsMatchesSerial) {
  auto run = [](int shards) {
    SeedSweepOptions options;
    options.num_seeds = 1;
    options.check_replay = false;
    options.shards = shards;
    SeedSweepRunner runner(options);
    auto profiles = SeedSweepRunner::DefaultProfiles();
    return runner.RunOne(13, profiles.back());
  };
  SweepRunResult serial = run(1);
  SweepRunResult wide = run(16);  // 14 shards own no hosts at all
  EXPECT_TRUE(serial.ok);
  EXPECT_TRUE(wide.ok);
  EXPECT_EQ(serial.trace_digest, wide.trace_digest);
  // The merged registry is a name-ordered map: equality is byte-for-byte
  // identical names AND values, independent of where hosts ran.
  EXPECT_EQ(serial.telemetry, wide.telemetry);
}

// MergedTelemetryValues must be a pure function of the workload: a tiny
// clustered RPC rack run at 16 shards under round-robin, contiguous, and
// traffic-aware placements — and at one shard — produces one identical
// merged snapshot.
TEST(ShardedSimTest, MergedTelemetryInvariantUnderTrafficAwarePlacement) {
  RpcRackConfig config;
  config.hosts = 16;
  config.jobs_per_host = 1;
  config.offered_gbps_per_host = 1.0;
  config.response_bytes = 64 * 1024;
  config.prober_qps = 200.0;
  config.cluster_hosts = 4;
  config.nic_params.hosts_per_cluster = 4;
  config.nic_params.inter_cluster_extra_delay = 2 * kUsec;
  config.seed = 5;
  config.host_options.group.mode = SchedulingMode::kDedicatedCores;
  config.host_options.group.dedicated_cores = {0};

  auto run = [&](int shards, const Placement* placement) {
    ShardedRack rack(config.seed, config.hosts, config.host_options, shards,
                     /*num_threads=*/0, config.nic_params, placement);
    // Ring workload: host h streams a few messages to host h+1, so every
    // placement splits some pairs across shards and keeps others local.
    std::vector<PonyEngine*> engines;
    std::vector<std::unique_ptr<PonyClient>> clients;
    for (int h = 0; h < config.hosts; ++h) {
      engines.push_back(rack.host(h)->CreatePonyEngine("e"));
      clients.push_back(rack.host(h)->CreateClient(engines.back(), "app"));
    }
    CpuCostSink cost;
    for (int h = 0; h < config.hosts; ++h) {
      PonyAddress peer = engines[(h + 1) % config.hosts]->address();
      uint64_t stream = clients[h]->CreateStream(peer);
      for (int m = 0; m < 4; ++m) {
        clients[h]->SendMessage(peer, stream, 2000, {}, &cost);
      }
    }
    rack.sharded().RunFor(20 * kMsec);
    // Publish per-host receive totals into each host's home registry:
    // every placement must merge to the same map (engine counters are only
    // populated by rebalance events, so the workload provides the values).
    for (int h = 0; h < config.hosts; ++h) {
      int64_t msgs = 0;
      int64_t bytes = 0;
      while (auto m = clients[h]->PollMessage(&cost)) {
        ++msgs;
        bytes += m->length;
      }
      Telemetry& t = rack.host(h)->sim()->telemetry();
      t.GetCounter("app/host" + std::to_string(h) + "/rx_msgs")->Add(msgs);
      t.GetCounter("app/host" + std::to_string(h) + "/rx_bytes")->Add(bytes);
    }
    return rack.sharded().MergedTelemetryValues();
  };

  TrafficMatrix traffic = BuildRackTrafficMatrix(config);
  Placement aware = Placement::TrafficAware(traffic, 16);
  Placement contiguous = Placement::Contiguous(config.hosts, 16);
  std::map<std::string, int64_t> serial = run(1, nullptr);
  std::map<std::string, int64_t> round_robin = run(16, nullptr);
  std::map<std::string, int64_t> aware_values = run(16, &aware);
  std::map<std::string, int64_t> contiguous_values = run(16, &contiguous);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, round_robin);
  EXPECT_EQ(serial, aware_values);
  EXPECT_EQ(serial, contiguous_values);
}

// The profiler is pure observation: arming it must not change the
// simulated outcome, and two profiled runs of the same seed must agree
// byte-for-byte on every deterministic surface (trace digest included —
// profiled traces carry the extra kProfilerTrack counters, so they are
// compared against profiled traces).
TEST(ShardedSimTest, ProfilingIsPureObservation) {
  auto run = [](bool profiled) {
    SeedSweepOptions options;
    options.num_seeds = 1;
    options.check_replay = false;
    options.shards = 4;
    options.enable_profiling = profiled;
    SeedSweepRunner runner(options);
    auto profiles = SeedSweepRunner::DefaultProfiles();
    return runner.RunOne(29, profiles.back());
  };
  SweepRunResult plain = run(false);
  SweepRunResult profiled = run(true);
  SweepRunResult profiled2 = run(true);
  EXPECT_TRUE(plain.ok);
  EXPECT_TRUE(profiled.ok);
  EXPECT_EQ(plain.delivered_messages, profiled.delivered_messages);
  EXPECT_EQ(plain.retransmits, profiled.retransmits);
  EXPECT_EQ(plain.epochs, profiled.epochs);
  // Simulated outcome identical: every metric the plain run had exists
  // with the same value in the profiled run (which adds sim/shard/* and
  // net/shard/* profiler metrics on top).
  for (const auto& [name, value] : plain.telemetry) {
    auto it = profiled.telemetry.find(name);
    ASSERT_NE(it, profiled.telemetry.end()) << name;
    EXPECT_EQ(it->second, value) << name;
  }
  EXPECT_GT(profiled.telemetry.count("sim/shard/0/epochs"), 0u);
  EXPECT_GT(profiled.telemetry.count("net/shard/0/handoff_in"), 0u);
  // Deterministic per seed: profiled == profiled, bit for bit.
  EXPECT_EQ(profiled.trace_digest, profiled2.trace_digest);
  EXPECT_EQ(profiled.telemetry, profiled2.telemetry);
}

TEST(ShardedSimTest, MergedTelemetrySumsAcrossShards) {
  ShardedSim::Options options;
  options.num_shards = 3;
  ShardedSim sharded(options);
  sharded.sim(0)->telemetry().GetCounter("a/x")->Add(1);
  sharded.sim(1)->telemetry().GetCounter("a/x")->Add(2);
  sharded.sim(2)->telemetry().GetCounter("b/y")->Add(5);
  std::map<std::string, int64_t> merged = sharded.MergedTelemetryValues();
  EXPECT_EQ(merged.at("a/x"), 3);
  EXPECT_EQ(merged.at("b/y"), 5);
  EXPECT_EQ(merged.size(), 2u);
}

}  // namespace
}  // namespace snap
