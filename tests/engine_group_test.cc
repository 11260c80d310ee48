// Engine-group scheduler tests: the three scheduling modes of Section 2.4
// exercised with synthetic engines — dedicated spinning, spreading's
// block/wake behavior, compacting's scale-out and compaction, mailbox
// execution on the engine thread, and fair sharing.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "src/sim/cpu.h"
#include "src/snap/engine_group.h"

namespace snap {
namespace {

// Synthetic engine: work arrives via AddWork(); Poll consumes it at a
// fixed per-item cost.
class FakeEngine : public Engine {
 public:
  FakeEngine(std::string name, SimDuration per_item = 500 * kNsec)
      : Engine(std::move(name)), per_item_(per_item) {}

  void AddWork(SimTime now, int items) {
    for (int i = 0; i < items; ++i) {
      arrivals_.push_back(now);
    }
    NotifyWork();
  }

  PollResult Poll(SimTime now, SimDuration budget_ns) override {
    PollResult result;
    result.cpu_ns += RunMailbox() > 0 ? 250 : 0;
    while (!arrivals_.empty() && result.cpu_ns < budget_ns) {
      service_latency_.Record(now - arrivals_.front());
      arrivals_.pop_front();
      result.cpu_ns += per_item_;
      ++result.work_items;
      ++serviced_;
    }
    return result;
  }

  bool HasWork(SimTime now) const override { return !arrivals_.empty(); }

  SimDuration QueueingDelay(SimTime now) const override {
    return arrivals_.empty() ? 0 : now - arrivals_.front();
  }

  int serviced() const { return serviced_; }
  const Histogram& service_latency() const { return service_latency_; }

 private:
  SimDuration per_item_;
  std::deque<SimTime> arrivals_;
  int serviced_ = 0;
  Histogram service_latency_;
};

class EngineGroupTest : public ::testing::Test {
 protected:
  void Init(int cores) {
    params_.num_cores = cores;
    sched_ = std::make_unique<CpuScheduler>(&sim_, params_);
  }

  Simulator sim_;
  CpuParams params_;
  std::unique_ptr<CpuScheduler> sched_;
};

// ---------------------------------------------------------------------------
// CompactingPolicy in isolation (E = int engine ids, SLO = 100 ns): the one
// copy of the rebalancing rules both the sim and live schedulers run.
// ---------------------------------------------------------------------------
using IntPolicy = CompactingPolicy<int>;
using Placement = std::vector<std::vector<int>>;
constexpr int64_t kPolicySlo = 100;

// One rebalancer round from a fresh policy.
struct PolicyCase {
  const char* name;
  Placement placement;
  std::vector<int64_t> delay;  // indexed by engine id
  bool moves;
  IntPolicy::Move expected;  // checked when `moves`
  Placement after;
};

TEST(CompactingPolicyTest, OneRoundDecisions) {
  const PolicyCase cases[] = {
      {"worst shared engine moves to the emptiest worker, lowest index",
       {{0, 1, 2}, {3}, {}, {}},
       {10, 500, 20, 0},
       true,
       {IntPolicy::Move::kScaleOut, 1, 0, 2, 500},
       {{0, 2}, {3}, {1}, {}}},
      {"emptiest other worker need not be empty",
       {{0, 1, 2}, {3, 4}, {5}},
       {0, 0, 0, 0, 900, 0},
       true,
       {IntPolicy::Move::kScaleOut, 4, 1, 2, 900},
       {{0, 1, 2}, {3}, {5, 4}}},
      {"worst engine alone on its worker: no move",
       {{0}, {1, 2}, {}},
       {500, 10, 10},
       false,
       {},
       {{0}, {1, 2}, {}}},
      {"no other worker has fewer engines: no move",
       {{0, 1}, {2, 3}},
       {500, 0, 0, 0},
       false,
       {},
       {{0, 1}, {2, 3}}},
      {"single worker: nowhere to scale out",
       {{0, 1}},
       {500, 500},
       false,
       {},
       {{0, 1}}},
      {"equal worst delays: first engine in placement order",
       {{2, 0}, {1}, {}},
       {300, 300, 300},
       true,
       {IntPolicy::Move::kScaleOut, 2, 0, 2, 300},
       {{0}, {1}, {2}}},
      {"delay at the SLO is not over it",
       {{0, 1}, {}},
       {kPolicySlo, 0},
       false,
       {},
       {{0, 1}, {}}},
  };
  for (const PolicyCase& c : cases) {
    SCOPED_TRACE(c.name);
    IntPolicy policy(kPolicySlo);
    Placement placement = c.placement;
    std::optional<IntPolicy::Move> move = policy.Decide(
        placement, [&c](int e) { return c.delay[static_cast<size_t>(e)]; });
    ASSERT_EQ(move.has_value(), c.moves);
    if (c.moves) {
      EXPECT_EQ(move->kind, c.expected.kind);
      EXPECT_EQ(move->engine, c.expected.engine);
      EXPECT_EQ(move->from, c.expected.from);
      EXPECT_EQ(move->to, c.expected.to);
      EXPECT_EQ(move->delay_ns, c.expected.delay_ns);
    }
    EXPECT_EQ(placement, c.after);
  }
}

// Runs `rounds` rounds with every engine at `delay` and returns how many
// of them moved something.
int RunRounds(IntPolicy* policy, Placement* placement, int rounds,
              int64_t delay) {
  int moves = 0;
  for (int i = 0; i < rounds; ++i) {
    if (policy->Decide(*placement, [delay](int) { return delay; })) {
      ++moves;
    }
  }
  return moves;
}

TEST(CompactingPolicyTest, FourthCalmRoundCompactsNewestOnHighestSecondary) {
  IntPolicy policy(kPolicySlo);
  Placement placement = {{0}, {1, 2}, {3, 4}, {}};
  // Summed delay 5 x 4 = 20 < SLO/4 = 25: calm.
  EXPECT_EQ(RunRounds(&policy, &placement, IntPolicy::kCalmRounds - 1, 4),
            0);
  EXPECT_EQ(placement, (Placement{{0}, {1, 2}, {3, 4}, {}}));
  std::optional<IntPolicy::Move> move =
      policy.Decide(placement, [](int) { return int64_t{4}; });
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->kind, IntPolicy::Move::kCompact);
  EXPECT_EQ(move->engine, 4);
  EXPECT_EQ(move->from, 2);
  EXPECT_EQ(move->to, 0);
  EXPECT_EQ(move->delay_ns, 20);
  EXPECT_EQ(placement, (Placement{{0, 4}, {1, 2}, {3}, {}}));
  // The count restarts after a compaction.
  EXPECT_EQ(RunRounds(&policy, &placement, IntPolicy::kCalmRounds - 1, 0),
            0);
  EXPECT_EQ(RunRounds(&policy, &placement, 1, 0), 1);
  EXPECT_EQ(placement, (Placement{{0, 4, 3}, {1, 2}, {}, {}}));
}

TEST(CompactingPolicyTest, LoudRoundResetsCalmCount) {
  // Loud: summed delay 2 x 13 = 26 >= SLO/4 with no engine over the SLO,
  // or both engines over it but each alone on its worker. Neither moves.
  for (int64_t loud : {int64_t{13}, 2 * kPolicySlo}) {
    SCOPED_TRACE(loud);
    IntPolicy policy(kPolicySlo);
    Placement placement = {{0}, {1}};
    EXPECT_EQ(RunRounds(&policy, &placement, IntPolicy::kCalmRounds - 1, 0),
              0);
    EXPECT_EQ(RunRounds(&policy, &placement, 1, loud), 0);
    EXPECT_EQ(RunRounds(&policy, &placement, IntPolicy::kCalmRounds - 1, 0),
              0);
    EXPECT_EQ(placement, (Placement{{0}, {1}}));
    EXPECT_EQ(RunRounds(&policy, &placement, 1, 0), 1);
    EXPECT_EQ(placement, (Placement{{0, 1}, {}}));
  }
}

TEST(CompactingPolicyTest, ScaleOutThenCompactBackRestoresPlacement) {
  IntPolicy policy(kPolicySlo);
  Placement placement = {{0, 1}, {}};
  std::vector<int64_t> delay = {0, 400};
  auto delay_of = [&delay](int e) { return delay[static_cast<size_t>(e)]; };
  std::optional<IntPolicy::Move> out = policy.Decide(placement, delay_of);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->kind, IntPolicy::Move::kScaleOut);
  EXPECT_EQ(placement, (Placement{{0}, {1}}));
  // Still over the SLO but alone: it stays put.
  EXPECT_FALSE(policy.Decide(placement, delay_of).has_value());
  delay = {0, 0};
  EXPECT_EQ(RunRounds(&policy, &placement, IntPolicy::kCalmRounds, 0), 1);
  EXPECT_EQ(placement, (Placement{{0, 1}, {}}));
}

TEST_F(EngineGroupTest, DedicatedServicesWorkPromptly) {
  Init(2);
  EngineGroup::Options options;
  options.mode = SchedulingMode::kDedicatedCores;
  options.dedicated_cores = {0};
  auto group = EngineGroup::Create("g", &sim_, sched_.get(), options);
  FakeEngine engine("e");
  group->AddEngine(&engine);
  sim_.RunFor(1 * kMsec);
  for (int i = 0; i < 50; ++i) {
    engine.AddWork(sim_.now(), 1);
    sim_.RunFor(100 * kUsec);
  }
  EXPECT_EQ(engine.serviced(), 50);
  // Spin-polling: work picked up within poll-detection latency (sub-us).
  EXPECT_LT(engine.service_latency().P99(), 3 * kUsec);
  // The dedicated core burns CPU the whole time.
  EXPECT_GT(group->CpuNs(), 5 * kMsec);
}

TEST_F(EngineGroupTest, DedicatedSharesCoreAcrossEngines) {
  Init(2);
  EngineGroup::Options options;
  options.mode = SchedulingMode::kDedicatedCores;
  options.dedicated_cores = {0};
  auto group = EngineGroup::Create("g", &sim_, sched_.get(), options);
  FakeEngine a("a");
  FakeEngine b("b");
  group->AddEngine(&a);
  group->AddEngine(&b);
  for (int i = 0; i < 100; ++i) {
    a.AddWork(sim_.now(), 5);
    b.AddWork(sim_.now(), 5);
    sim_.RunFor(50 * kUsec);
  }
  // Round-robin polling services both.
  EXPECT_EQ(a.serviced(), 500);
  EXPECT_EQ(b.serviced(), 500);
}

TEST_F(EngineGroupTest, SpreadingBlocksWhenIdleAndWakesOnWork) {
  params_.enable_cstates = false;  // isolate scheduling from C-state exits
  Init(4);
  EngineGroup::Options options;
  options.mode = SchedulingMode::kSpreadingEngines;
  auto group = EngineGroup::Create("g", &sim_, sched_.get(), options);
  FakeEngine engine("e");
  group->AddEngine(&engine);
  sim_.RunFor(5 * kMsec);
  int64_t idle_cpu = group->CpuNs();
  // Blocked while idle: near-zero CPU (no spinning).
  EXPECT_LT(idle_cpu, 100 * kUsec);

  for (int i = 0; i < 20; ++i) {
    engine.AddWork(sim_.now(), 2);
    sim_.RunFor(200 * kUsec);
  }
  EXPECT_EQ(engine.serviced(), 40);
  // Interrupt-driven wakeup: IPI + IRQ entry (~1us), not spinning-fast
  // nanoseconds; bounded well below C-state territory.
  EXPECT_GE(engine.service_latency().P99(), 800);
  EXPECT_LT(engine.service_latency().P99(), 40 * kUsec);
}

TEST_F(EngineGroupTest, SpreadingScalesAcrossCores) {
  Init(4);
  EngineGroup::Options options;
  options.mode = SchedulingMode::kSpreadingEngines;
  auto group = EngineGroup::Create("g", &sim_, sched_.get(), options);
  FakeEngine a("a", 2 * kUsec);
  FakeEngine b("b", 2 * kUsec);
  FakeEngine c("c", 2 * kUsec);
  group->AddEngine(&a);
  group->AddEngine(&b);
  group->AddEngine(&c);
  // Saturating load on all three engines simultaneously.
  for (int i = 0; i < 200; ++i) {
    a.AddWork(sim_.now(), 3);
    b.AddWork(sim_.now(), 3);
    c.AddWork(sim_.now(), 3);
    sim_.RunFor(20 * kUsec);
  }
  sim_.RunFor(2 * kMsec);
  // Each engine got its own thread; all finish their 600 items. With one
  // shared core this would need 3.6ms of serialized work per engine set.
  EXPECT_EQ(a.serviced() + b.serviced() + c.serviced(), 1800);
}

TEST_F(EngineGroupTest, CompactingStartsOnPrimaryAndScalesOut) {
  Init(6);
  EngineGroup::Options options;
  options.mode = SchedulingMode::kCompactingEngines;
  options.compacting_slo = 30 * kUsec;
  options.max_workers = 4;
  auto group = EngineGroup::Create("g", &sim_, sched_.get(), options);
  FakeEngine a("a", 4 * kUsec);
  FakeEngine b("b", 4 * kUsec);
  group->AddEngine(&a);
  group->AddEngine(&b);
  // Light load: everything stays compacted.
  for (int i = 0; i < 20; ++i) {
    a.AddWork(sim_.now(), 1);
    b.AddWork(sim_.now(), 1);
    sim_.RunFor(200 * kUsec);
  }
  EXPECT_EQ(a.serviced(), 20);
  EXPECT_EQ(b.serviced(), 20);
  Counter* scale_outs =
      sim_.telemetry().GetCounter("snap/g/rebalance/scale_outs");
  EXPECT_EQ(scale_outs->value(), 0);

  // Overload both engines: queueing delay exceeds the SLO; the rebalancer
  // must scale an engine out to another worker.
  for (int i = 0; i < 300; ++i) {
    a.AddWork(sim_.now(), 4);
    b.AddWork(sim_.now(), 4);
    sim_.RunFor(20 * kUsec);
  }
  sim_.RunFor(10 * kMsec);
  EXPECT_EQ(a.serviced(), 20 + 1200);
  EXPECT_EQ(b.serviced(), 20 + 1200);
  EXPECT_GE(scale_outs->value(), 1);
}

TEST_F(EngineGroupTest, CompactingPrimarySpinsForLowLatencyWhenIdle) {
  Init(4);
  EngineGroup::Options options;
  options.mode = SchedulingMode::kCompactingEngines;
  auto group = EngineGroup::Create("g", &sim_, sched_.get(), options);
  FakeEngine engine("e");
  group->AddEngine(&engine);
  // Long idle, then sparse single items: the spinning primary picks each
  // up without paying interrupt/C-state wakeup costs (Figure 7(a)).
  sim_.RunFor(5 * kMsec);
  for (int i = 0; i < 20; ++i) {
    engine.AddWork(sim_.now(), 1);
    sim_.RunFor(1 * kMsec);  // 1ms gaps: deep C-states for blocked designs
  }
  EXPECT_EQ(engine.serviced(), 20);
  EXPECT_LT(engine.service_latency().P99(), 3 * kUsec);
}

// Compacting migration is part of the modeled world, so it must be
// bit-deterministic: two runs of the same seeded overload produce the
// same serviced counts, the same CPU burn, and the same latency tail.
// And migration must actually help — once scaled out, a later wave of
// the same load is serviced with a tail bounded near the SLO, not the
// overload backlog's.
TEST_F(EngineGroupTest, CompactingMigrationDeterministicUnderSlo) {
  constexpr SimDuration kSlo = 30 * kUsec;
  struct RunOutcome {
    int serviced_a = 0;
    int serviced_b = 0;
    int64_t cpu_ns = 0;
    int64_t overload_p99 = 0;
    int64_t steady_p99 = 0;
  };
  auto run_once = [&]() {
    Simulator sim(7);
    CpuParams params;
    params.num_cores = 6;
    CpuScheduler sched(&sim, params);
    EngineGroup::Options options;
    options.mode = SchedulingMode::kCompactingEngines;
    options.compacting_slo = kSlo;
    options.max_workers = 4;
    auto group = EngineGroup::Create("g", &sim, &sched, options);
    FakeEngine a("a", 4 * kUsec);
    FakeEngine b("b", 4 * kUsec);
    group->AddEngine(&a);
    group->AddEngine(&b);
    // Overload both engines past the SLO to force scale-out.
    for (int i = 0; i < 300; ++i) {
      a.AddWork(sim.now(), 4);
      b.AddWork(sim.now(), 4);
      sim.RunFor(20 * kUsec);
    }
    sim.RunFor(10 * kMsec);
    RunOutcome outcome;
    outcome.overload_p99 = a.service_latency().P99();
    // Steady wave at the same offered rate on the scaled-out layout: the
    // backlog is gone, so the tail reflects placement, not the queue.
    FakeEngine steady("steady", 4 * kUsec);
    group->AddEngine(&steady);
    for (int i = 0; i < 200; ++i) {
      steady.AddWork(sim.now(), 1);
      a.AddWork(sim.now(), 1);
      sim.RunFor(20 * kUsec);
    }
    sim.RunFor(10 * kMsec);
    outcome.serviced_a = a.serviced();
    outcome.serviced_b = b.serviced();
    outcome.cpu_ns = group->CpuNs();
    outcome.steady_p99 = steady.service_latency().P99();
    EXPECT_EQ(steady.serviced(), 200);
    return outcome;
  };

  RunOutcome first = run_once();
  RunOutcome second = run_once();
  EXPECT_EQ(first.serviced_a, second.serviced_a);
  EXPECT_EQ(first.serviced_b, second.serviced_b);
  EXPECT_EQ(first.cpu_ns, second.cpu_ns);
  EXPECT_EQ(first.overload_p99, second.overload_p99);
  EXPECT_EQ(first.steady_p99, second.steady_p99);
  EXPECT_EQ(first.serviced_a, 1200 + 200);
  EXPECT_EQ(first.serviced_b, 1200);
  // The overload tail blew the SLO (that is what triggered scale-out);
  // the steady tail on the migrated layout sits within a small multiple
  // of it.
  EXPECT_GT(first.overload_p99, kSlo);
  EXPECT_LT(first.steady_p99, 4 * kSlo);
}

TEST_F(EngineGroupTest, MailboxWorkRunsOnEngineThread) {
  Init(2);
  EngineGroup::Options options;
  options.mode = SchedulingMode::kDedicatedCores;
  options.dedicated_cores = {0};
  auto group = EngineGroup::Create("g", &sim_, sched_.get(), options);
  FakeEngine engine("e");
  group->AddEngine(&engine);
  sim_.RunFor(1 * kMsec);
  bool ran = false;
  ASSERT_TRUE(engine.mailbox()->Post([&ran] { ran = true; }));
  engine.NotifyWork();
  sim_.RunFor(1 * kMsec);
  EXPECT_TRUE(ran);
}

TEST_F(EngineGroupTest, RemoveEngineStopsPolling) {
  Init(2);
  EngineGroup::Options options;
  options.mode = SchedulingMode::kDedicatedCores;
  options.dedicated_cores = {0};
  auto group = EngineGroup::Create("g", &sim_, sched_.get(), options);
  FakeEngine engine("e");
  group->AddEngine(&engine);
  sim_.RunFor(1 * kMsec);
  group->RemoveEngine(&engine);
  engine.AddWork(sim_.now(), 5);
  sim_.RunFor(5 * kMsec);
  EXPECT_EQ(engine.serviced(), 0);
}

// Parameterized: every mode must deliver all work under mixed load.
class AllModesTest : public ::testing::TestWithParam<SchedulingMode> {};

TEST_P(AllModesTest, DeliversAllWorkUnderburstyLoad) {
  Simulator sim(21);
  CpuParams params;
  params.num_cores = 6;
  CpuScheduler sched(&sim, params);
  EngineGroup::Options options;
  options.mode = GetParam();
  options.dedicated_cores = {0, 1};
  auto group = EngineGroup::Create("g", &sim, &sched, options);
  std::vector<std::unique_ptr<FakeEngine>> engines;
  for (int i = 0; i < 4; ++i) {
    engines.push_back(
        std::make_unique<FakeEngine>("e" + std::to_string(i)));
    group->AddEngine(engines.back().get());
  }
  Rng rng(5);
  int total = 0;
  for (int round = 0; round < 200; ++round) {
    for (auto& e : engines) {
      int items = static_cast<int>(rng.NextBounded(4));
      e->AddWork(sim.now(), items);
      total += items;
    }
    sim.RunFor(rng.NextInt(10, 100) * kUsec);
  }
  sim.RunFor(20 * kMsec);
  int serviced = 0;
  for (auto& e : engines) {
    serviced += e->serviced();
  }
  EXPECT_EQ(serviced, total);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, AllModesTest,
    ::testing::Values(SchedulingMode::kDedicatedCores,
                      SchedulingMode::kSpreadingEngines,
                      SchedulingMode::kCompactingEngines));

}  // namespace
}  // namespace snap
