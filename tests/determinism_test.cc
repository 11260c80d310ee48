// System-level properties:
//  - determinism: identical seeds produce bit-identical end-to-end results
//    (the property transparent-upgrade debugging and CI depend on);
//  - packet conservation: every packet transmitted is delivered or
//    accounted to exactly one drop counter;
//  - message conservation under loss: bytes delivered to applications
//    never exceed bytes submitted, and eventually match them.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/apps/pony_apps.h"
#include "src/apps/simhost.h"
#include "src/stats/trace.h"
#include "src/testing/seed_sweep.h"

namespace snap {
namespace {

struct RunOutcome {
  int64_t bytes_received = 0;
  int64_t tx_packets = 0;
  int64_t rx_packets = 0;
  int64_t retransmits = 0;
  int64_t snap_cpu = 0;
  int64_t prober_p99 = 0;

  bool operator==(const RunOutcome& other) const {
    return bytes_received == other.bytes_received &&
           tx_packets == other.tx_packets &&
           rx_packets == other.rx_packets &&
           retransmits == other.retransmits &&
           snap_cpu == other.snap_cpu && prober_p99 == other.prober_p99;
  }
};

RunOutcome RunWorkload(uint64_t seed, double drop_probability,
                       TraceRecorder* tracer = nullptr) {
  Simulator sim(seed);
  if (tracer != nullptr) {
    sim.set_tracer(tracer);
  }
  Fabric fabric(&sim, NicParams{});
  fabric.set_random_drop_probability(drop_probability);
  PonyDirectory directory;
  SimHostOptions options;
  options.group.mode = SchedulingMode::kCompactingEngines;
  SimHost a(&sim, &fabric, &directory, options);
  SimHost b(&sim, &fabric, &directory, options);
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "appA");
  auto cb = b.CreateClient(eb, "appB");

  PonyStreamReceiverTask receiver("rx", b.cpu(), cb.get());
  receiver.Start();
  PonyStreamSenderTask::Options so;
  so.peer = eb->address();
  so.message_bytes = 16 * 1024;
  so.num_streams = 4;
  PonyStreamSenderTask sender("tx", a.cpu(), ca.get(), so);
  sender.Start();
  PonyEchoServerTask echo("echo", b.cpu(), cb.get());
  sim.RunFor(40 * kMsec);

  RunOutcome outcome;
  outcome.bytes_received = receiver.bytes_received();
  outcome.tx_packets = ea->stats().tx_packets;
  outcome.rx_packets = eb->stats().rx_packets;
  Flow* flow = ea->FindFlow(eb->address());
  outcome.retransmits = flow == nullptr ? 0 : flow->stats().retransmits;
  outcome.snap_cpu = a.SnapCpuNs() + b.SnapCpuNs();
  return outcome;
}

TEST(DeterminismTest, IdenticalSeedsIdenticalOutcomes) {
  RunOutcome first = RunWorkload(1234, 0.0);
  RunOutcome second = RunWorkload(1234, 0.0);
  EXPECT_TRUE(first == second);
  EXPECT_GT(first.bytes_received, 0);
}

TEST(DeterminismTest, IdenticalSeedsIdenticalUnderLoss) {
  RunOutcome first = RunWorkload(99, 0.03);
  RunOutcome second = RunWorkload(99, 0.03);
  EXPECT_TRUE(first == second);
  EXPECT_GT(first.retransmits, 0);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  // Loss patterns differ, so retransmit counts almost surely differ.
  RunOutcome a = RunWorkload(1, 0.05);
  RunOutcome b = RunWorkload(2, 0.05);
  EXPECT_FALSE(a == b);
}

// The hard acceptance gate for the sharded simulator: the chaos seed
// sweep must produce bit-identical trace digests whether it runs on the
// serial single-Simulator engine (shards=1) or on the conservative
// parallel engine at any shard count. The digest covers every received
// packet's (time, host, flow, seq, type, crc, wire_bytes) in canonical
// order, so any divergence in delivery times, chaos decisions, retransmit
// schedules, or cross-shard exchange ordering shows up here.
TEST(DeterminismTest, ParallelShardsMatchSerialDigestsAcrossChaosSweep) {
  auto sweep = [](int shards) {
    SeedSweepOptions options;
    options.num_seeds = 8;
    options.first_seed = 1;
    options.check_replay = false;
    options.shards = shards;
    SeedSweepRunner runner(options);
    auto profiles = SeedSweepRunner::DefaultProfiles();
    // Two contrasting profiles: pure bursty loss, and everything at once.
    std::vector<ChaosProfile> selected = {profiles.front(), profiles.back()};

    std::vector<std::pair<std::string, uint64_t>> digests;
    for (const ChaosProfile& profile : selected) {
      for (int s = 0; s < options.num_seeds; ++s) {
        SweepRunResult result = runner.RunOne(options.first_seed + s, profile);
        EXPECT_TRUE(result.ok)
            << "invariants violated under " << profile.name << " seed "
            << options.first_seed + s << " shards " << shards << ":\n";
        digests.emplace_back(
            profile.name + "/" + std::to_string(options.first_seed + s),
            result.trace_digest);
      }
    }
    return digests;
  };

  auto serial = sweep(1);
  for (int shards : {2, 4, 8}) {
    auto parallel = sweep(shards);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], parallel[i])
          << "trace digest diverged between serial and " << shards
          << "-shard engines";
    }
  }
}

// The sharded engine's profiler and series sampler are pure observation:
// the delivery digest of a profiled sharded chaos run is bit-identical to
// the unprofiled serial baseline (wall-clock numbers stay confined to
// ShardedSim::Profile; the deterministic counters never feed back into
// the simulation), and the profiled run's own outputs reproduce exactly
// per seed.
TEST(DeterminismTest, ChaosSweepDigestsUnchangedByProfiling) {
  auto sweep = [](int shards, bool profiled) {
    SeedSweepOptions options;
    options.num_seeds = 4;
    options.first_seed = 1;
    options.check_replay = false;
    options.shards = shards;
    options.enable_profiling = profiled;
    SeedSweepRunner runner(options);
    auto profiles = SeedSweepRunner::DefaultProfiles();
    std::vector<ChaosProfile> selected = {profiles.front(), profiles.back()};
    std::vector<uint64_t> digests;
    std::vector<std::map<std::string, int64_t>> telemetry;
    for (const ChaosProfile& profile : selected) {
      for (int s = 0; s < options.num_seeds; ++s) {
        SweepRunResult result = runner.RunOne(options.first_seed + s, profile);
        EXPECT_TRUE(result.ok)
            << profile.name << " seed " << options.first_seed + s;
        digests.push_back(result.trace_digest);
        telemetry.push_back(std::move(result.telemetry));
      }
    }
    return std::make_pair(digests, telemetry);
  };
  auto serial = sweep(1, false);
  auto profiled = sweep(4, true);
  auto profiled_again = sweep(4, true);
  ASSERT_EQ(serial.first.size(), profiled.first.size());
  for (size_t i = 0; i < serial.first.size(); ++i) {
    // Profiling off vs on: the simulated outcome is byte-identical.
    EXPECT_EQ(serial.first[i], profiled.first[i]) << "digest " << i;
    // Profiled runs reproduce exactly, profiler telemetry included.
    EXPECT_EQ(profiled.first[i], profiled_again.first[i]) << "digest " << i;
    EXPECT_EQ(profiled.second[i], profiled_again.second[i])
        << "profiled telemetry diverged, run " << i;
  }
}

// Fabric-level random loss with the sharded engine: the drop decision is
// a per-packet hash of (seed, src, dst, per-source departure seq), not an
// RNG draw, so the drop pattern — and therefore every retransmission and
// digest — is identical on the serial engine and on every shard count.
// (A global-RNG Bernoulli could never pass this: shards draw in
// different orders.)
TEST(DeterminismTest, FabricDropParitySerialVsSharded) {
  auto sweep = [](int shards) {
    SeedSweepOptions options;
    options.num_seeds = 4;
    options.first_seed = 1;
    options.check_replay = false;
    options.shards = shards;
    options.fabric_drop_probability = 0.02;
    SeedSweepRunner runner(options);
    // No chaos-link churn: all loss comes from the fabric's hashed drop.
    ChaosProfile calm;
    calm.name = "fabric-drop-only";

    std::vector<std::pair<std::string, uint64_t>> digests;
    int64_t retransmits = 0;
    for (int s = 0; s < options.num_seeds; ++s) {
      SweepRunResult result = runner.RunOne(options.first_seed + s, calm);
      EXPECT_TRUE(result.ok) << "invariants violated, seed "
                             << options.first_seed + s << " shards "
                             << shards;
      EXPECT_TRUE(result.completed);
      retransmits += result.retransmits;
      digests.emplace_back(std::to_string(options.first_seed + s),
                           result.trace_digest);
    }
    return std::make_pair(digests, retransmits);
  };

  auto [serial, serial_retx] = sweep(1);
  // The hashed drop actually dropped something: recovery ran.
  EXPECT_GT(serial_retx, 0);
  for (int shards : {2, 4}) {
    auto [parallel, parallel_retx] = sweep(shards);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], parallel[i])
          << "drop-enabled digest diverged between serial and " << shards
          << "-shard engines";
    }
    EXPECT_EQ(serial_retx, parallel_retx);
  }
}

// The flight-recorder determinism contract, both directions:
//  - same seed => byte-identical trace JSON across runs;
//  - attaching a tracer never perturbs simulation outcomes.
TEST(DeterminismTest, SameSeedProducesByteIdenticalTrace) {
  TraceRecorder first_trace;
  TraceRecorder second_trace;
  RunOutcome first = RunWorkload(1234, 0.0, &first_trace);
  RunOutcome second = RunWorkload(1234, 0.0, &second_trace);
  EXPECT_TRUE(first == second);
  ASSERT_GT(first_trace.size(), 1000u) << "trace suspiciously small";
  EXPECT_EQ(first_trace.size(), second_trace.size());
  EXPECT_EQ(first_trace.ToJson(), second_trace.ToJson());
}

TEST(DeterminismTest, TracingDoesNotPerturbOutcomes) {
  TraceRecorder tracer;
  RunOutcome traced = RunWorkload(99, 0.03, &tracer);
  RunOutcome untraced = RunWorkload(99, 0.03);
  EXPECT_TRUE(traced == untraced);
  EXPECT_GT(traced.retransmits, 0);
}

// Chaos-sweep digests cover every received packet in execution order; they
// must be bit-identical whether tracing is enabled or disabled, because
// recording draws no randomness and never feeds back into the simulation.
TEST(DeterminismTest, ChaosSweepDigestsUnchangedByTracing) {
  auto sweep = [](bool enable_trace) {
    SeedSweepOptions options;
    options.num_seeds = 4;
    options.first_seed = 1;
    options.check_replay = false;
    options.enable_trace = enable_trace;
    SeedSweepRunner runner(options);
    auto profiles = SeedSweepRunner::DefaultProfiles();
    std::vector<ChaosProfile> selected = {profiles.front(), profiles.back()};

    std::vector<std::pair<std::string, uint64_t>> digests;
    for (const ChaosProfile& profile : selected) {
      for (int s = 0; s < options.num_seeds; ++s) {
        SweepRunResult result = runner.RunOne(options.first_seed + s, profile);
        EXPECT_TRUE(result.ok)
            << "invariants violated under " << profile.name << " seed "
            << options.first_seed + s << " trace=" << enable_trace;
        digests.emplace_back(
            profile.name + "/" + std::to_string(options.first_seed + s),
            result.trace_digest);
      }
    }
    return digests;
  };

  auto untraced = sweep(false);
  auto traced = sweep(true);
  ASSERT_EQ(untraced.size(), traced.size());
  for (size_t i = 0; i < untraced.size(); ++i) {
    EXPECT_EQ(untraced[i], traced[i])
        << "chaos digest changed when tracing was enabled";
  }
}

// Conservation: every transmitted packet is delivered or counted dropped.
class ConservationTest : public ::testing::TestWithParam<double> {};

TEST_P(ConservationTest, PacketsNeverVanish) {
  double drop_probability = GetParam();
  Simulator sim(7);
  Fabric fabric(&sim, NicParams{});
  fabric.set_random_drop_probability(drop_probability);
  PonyDirectory directory;
  SimHostOptions options;
  options.group.mode = SchedulingMode::kDedicatedCores;
  options.group.dedicated_cores = {0};
  SimHost a(&sim, &fabric, &directory, options);
  SimHost b(&sim, &fabric, &directory, options);
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "appA");
  auto cb = b.CreateClient(eb, "appB");
  PonyStreamReceiverTask receiver("rx", b.cpu(), cb.get());
  receiver.Start();
  PonyStreamSenderTask::Options so;
  so.peer = eb->address();
  so.message_bytes = 8 * 1024;
  PonyStreamSenderTask sender("tx", a.cpu(), ca.get(), so);
  sender.Start();
  sim.RunFor(30 * kMsec);

  // Fabric-level conservation.
  const Fabric::Stats& fs = fabric.stats();
  int64_t wire_tx =
      a.nic()->stats().tx_packets + b.nic()->stats().tx_packets;
  int64_t wire_rx =
      a.nic()->stats().rx_packets + b.nic()->stats().rx_packets;
  // Packets still in flight at the cut are bounded by ring sizes.
  int64_t accounted = wire_rx + fs.dropped_random + fs.dropped_queue_full +
                      fs.dropped_bad_address;
  EXPECT_GE(wire_tx, accounted - 8);
  EXPECT_LE(wire_tx - accounted, 2048);
  if (drop_probability > 0) {
    EXPECT_GT(fs.dropped_random, 0);
  }
  // Application-level: never deliver more than was submitted.
  EXPECT_LE(receiver.bytes_received(), sender.bytes_submitted());
}

INSTANTIATE_TEST_SUITE_P(DropRates, ConservationTest,
                         ::testing::Values(0.0, 0.01, 0.1));

}  // namespace
}  // namespace snap
