// Transparent upgrade tests (Section 4): engines migrate between Snap
// instances one at a time, client channels survive, in-flight traffic is
// recovered by end-to-end retransmission, blackout scales with state size,
// and the engine's serialized state (flows, streams, pending ops) is
// faithfully restored.
#include <gtest/gtest.h>

#include "src/apps/pony_apps.h"
#include "src/apps/simhost.h"
#include "src/snap/upgrade.h"
#include "src/stats/trace.h"

namespace snap {
namespace {

class UpgradeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<Simulator>(31);
    fabric_ = std::make_unique<Fabric>(sim_.get(), NicParams{});
    directory_ = std::make_unique<PonyDirectory>();
    SimHostOptions options;
    options.group.mode = SchedulingMode::kDedicatedCores;
    options.group.dedicated_cores = {0};
    a_ = std::make_unique<SimHost>(sim_.get(), fabric_.get(),
                                   directory_.get(), options);
    b_ = std::make_unique<SimHost>(sim_.get(), fabric_.get(),
                                   directory_.get(), options);
  }

  // Builds the new Snap instance ("version 2") on host A with a matching
  // module and group, like the Snap master launching the new release.
  std::unique_ptr<SnapInstance> MakeNewInstance() {
    auto inst = std::make_unique<SnapInstance>(
        "snap-v2", sim_.get(), a_->cpu(), a_->nic());
    inst->RegisterModule(std::make_unique<PonyModule>(
        sim_.get(), a_->nic(), directory_.get(), a_->options().pony,
        a_->options().timely, a_->options().app));
    EngineGroup::Options group_options;
    group_options.mode = SchedulingMode::kDedicatedCores;
    group_options.dedicated_cores = {1};
    inst->CreateGroup("default", group_options);
    return inst;
  }

  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<PonyDirectory> directory_;
  std::unique_ptr<SimHost> a_;
  std::unique_ptr<SimHost> b_;
};

TEST_F(UpgradeTest, EngineMigratesAndClientSurvives) {
  PonyEngine* ea = a_->CreatePonyEngine("engine0");
  PonyEngine* eb = b_->CreatePonyEngine("peer");
  auto ca = a_->CreateClient(ea, "app");
  auto cb = b_->CreateClient(eb, "peer_app");

  // Traffic before the upgrade.
  CpuCostSink cost;
  uint64_t stream = ca->CreateStream(eb->address());
  ca->SendMessage(eb->address(), stream, 0, {1, 2, 3}, &cost);
  sim_->RunFor(5 * kMsec);
  EXPECT_TRUE(cb->PollMessage(&cost).has_value());

  std::unique_ptr<SnapInstance> v2 = MakeNewInstance();
  UpgradeManager manager(sim_.get(), UpgradeParams{});
  UpgradeManager::Result result;
  bool done = false;
  manager.StartUpgrade(a_->snap(), v2.get(), [&](const auto& r) {
    result = r;
    done = true;
  });
  sim_->RunFor(2000 * kMsec);
  ASSERT_TRUE(done);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.engines.size(), 1u);
  EXPECT_GT(result.engines[0].blackout, 0);

  // The old instance no longer owns the engine; the new one does.
  EXPECT_EQ(a_->snap()->engine("engine0"), nullptr);
  PonyEngine* fresh = static_cast<PonyEngine*>(v2->engine("engine0"));
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh, ea);
  // Same fabric address (peers' flows stay valid).
  EXPECT_EQ(fresh->address(), (PonyAddress{a_->host_id(), 1}));

  // The client channel was rebound transparently: the app keeps using the
  // same PonyClient object ("applications do not notice").
  EXPECT_EQ(ca->engine(), fresh);
  ca->SendMessage(eb->address(), stream, 0, {9, 8, 7}, &cost);
  sim_->RunFor(10 * kMsec);
  auto msg = cb->PollMessage(&cost);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->data, (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_EQ(msg->stream_id, stream);  // stream survived, state intact
}

TEST_F(UpgradeTest, InFlightTrafficRecoversAcrossBlackout) {
  PonyEngine* ea = a_->CreatePonyEngine("engine0");
  PonyEngine* eb = b_->CreatePonyEngine("peer");
  auto ca = a_->CreateClient(ea, "app");
  auto cb = b_->CreateClient(eb, "peer_app");

  // Continuous receiving app + a sender that keeps pumping messages
  // through the upgrade window.
  PonyStreamReceiverTask receiver("rx", b_->cpu(), cb.get());
  receiver.Start();
  PonyStreamSenderTask::Options sender_options;
  sender_options.peer = eb->address();
  sender_options.message_bytes = 8 * 1024;
  sender_options.max_outstanding = 8;
  PonyStreamSenderTask sender("tx", a_->cpu(), ca.get(), sender_options);
  sender.Start();
  sim_->RunFor(20 * kMsec);
  EXPECT_GT(receiver.bytes_received(), 0);

  std::unique_ptr<SnapInstance> v2 = MakeNewInstance();
  UpgradeManager manager(sim_.get(), UpgradeParams{});
  bool done = false;
  manager.StartUpgrade(a_->snap(), v2.get(),
                       [&](const auto&) { done = true; });
  // Step until the upgrade reports done (the blackout floor is tens of
  // ms), bounded by one simulated second.
  const SimTime deadline = sim_->now() + 1000 * kMsec;
  while (!done && sim_->now() < deadline) {
    sim_->RunFor(1 * kMsec);
  }
  ASSERT_TRUE(done);

  // Traffic resumed after the blackout: whatever was sent eventually
  // arrives (dropped packets are retransmitted by the restored flows).
  int64_t after_upgrade = receiver.bytes_received();
  sim_->RunFor(500 * kMsec);
  EXPECT_GT(receiver.bytes_received(), after_upgrade);
  // The sender never stops, so the last few messages are legitimately in
  // flight when the clock stops: everything except a small in-flight
  // window must have arrived (nothing was lost to the blackout).
  sim_->RunFor(1000 * kMsec);
  EXPECT_GE(receiver.bytes_received(),
            sender.bytes_submitted() - (2 << 20));
}

TEST_F(UpgradeTest, BlackoutGrowsWithStateFootprint) {
  // Two engines: one nearly stateless, one with many flows.
  PonyEngine* small = a_->CreatePonyEngine("small");
  PonyEngine* big = a_->CreatePonyEngine("big");
  auto ca = a_->CreateClient(small, "app_small");
  auto cb = a_->CreateClient(big, "app_big");
  (void)ca;

  // Populate the big engine with flows to many peers.
  std::vector<std::unique_ptr<SimHost>> peers;
  CpuCostSink cost;
  for (int i = 0; i < 12; ++i) {
    SimHostOptions options;
    options.group.mode = SchedulingMode::kDedicatedCores;
    options.group.dedicated_cores = {0};
    peers.push_back(std::make_unique<SimHost>(
        sim_.get(), fabric_.get(), directory_.get(), options));
    PonyEngine* pe = peers.back()->CreatePonyEngine(
        "peer" + std::to_string(i));
    uint64_t stream = cb->CreateStream(pe->address());
    cb->SendMessage(pe->address(), stream, 64, {}, &cost);
    sim_->RunFor(1 * kMsec);
  }
  EXPECT_GE(big->flow_count(), 12u);
  EXPECT_EQ(small->flow_count(), 0u);

  std::unique_ptr<SnapInstance> v2 = MakeNewInstance();
  UpgradeManager manager(sim_.get(), UpgradeParams{});
  UpgradeManager::Result result;
  bool done = false;
  manager.StartUpgrade(a_->snap(), v2.get(), [&](const auto& r) {
    result = r;
    done = true;
  });
  sim_->RunFor(5000 * kMsec);
  ASSERT_TRUE(done);
  ASSERT_EQ(result.engines.size(), 2u);
  SimDuration small_blackout = 0;
  SimDuration big_blackout = 0;
  for (const auto& er : result.engines) {
    if (er.engine_name == "small") {
      small_blackout = er.blackout;
    } else {
      big_blackout = er.blackout;
    }
  }
  EXPECT_GT(big_blackout, small_blackout);
  // Both include the fixed floor.
  UpgradeParams defaults;
  EXPECT_GE(small_blackout, defaults.blackout_fixed);
}

TEST_F(UpgradeTest, EnginesMigrateOneAtATime) {
  // With several engines, migrations are sequential: total upgrade time is
  // at least the sum of blackouts (Section 4: "migrating engines one at a
  // time, each in its entirety").
  for (int i = 0; i < 3; ++i) {
    a_->CreatePonyEngine("engine" + std::to_string(i));
  }
  std::unique_ptr<SnapInstance> v2 = MakeNewInstance();
  UpgradeManager manager(sim_.get(), UpgradeParams{});
  UpgradeManager::Result result;
  bool done = false;
  manager.StartUpgrade(a_->snap(), v2.get(), [&](const auto& r) {
    result = r;
    done = true;
  });
  sim_->RunFor(5000 * kMsec);
  ASSERT_TRUE(done);
  ASSERT_EQ(result.engines.size(), 3u);
  SimDuration sum = 0;
  for (const auto& er : result.engines) {
    sum += er.blackout + er.brownout;
  }
  EXPECT_GE(result.total, sum);
  EXPECT_EQ(v2->engines().size(), 3u);
  EXPECT_TRUE(a_->snap()->engines().empty());
}

TEST_F(UpgradeTest, BlackoutHistogramAccumulates) {
  a_->CreatePonyEngine("e1");
  a_->CreatePonyEngine("e2");
  std::unique_ptr<SnapInstance> v2 = MakeNewInstance();
  UpgradeManager manager(sim_.get(), UpgradeParams{});
  bool done = false;
  manager.StartUpgrade(a_->snap(), v2.get(),
                       [&](const auto&) { done = true; });
  sim_->RunFor(5000 * kMsec);
  ASSERT_TRUE(done);
  EXPECT_EQ(manager.blackout_histogram().count(), 2);
  UpgradeParams defaults;
  EXPECT_GE(manager.blackout_histogram().min(), defaults.blackout_fixed);
}

// The flight recorder's async spans must reproduce the brownout/blackout
// durations the upgrade manager reports — the trace IS the measurement,
// not an approximation of it.
TEST_F(UpgradeTest, TraceSpansMatchReportedBrownoutAndBlackout) {
  TraceRecorder trace;
  sim_->set_tracer(&trace);
  a_->CreatePonyEngine("e1");
  a_->CreatePonyEngine("e2");
  std::unique_ptr<SnapInstance> v2 = MakeNewInstance();
  UpgradeManager manager(sim_.get(), UpgradeParams{});
  UpgradeManager::Result result;
  bool done = false;
  manager.StartUpgrade(a_->snap(), v2.get(), [&](const auto& r) {
    result = r;
    done = true;
  });
  sim_->RunFor(5000 * kMsec);
  ASSERT_TRUE(done);
  ASSERT_EQ(result.engines.size(), 2u);

  auto brownouts = trace.AsyncSpans("brownout");
  auto blackouts = trace.AsyncSpans("blackout");
  ASSERT_EQ(brownouts.size(), result.engines.size());
  ASSERT_EQ(blackouts.size(), result.engines.size());
  for (size_t i = 0; i < result.engines.size(); ++i) {
    const auto& er = result.engines[i];
    ASSERT_GE(brownouts[i].end, 0) << "brownout span left open";
    ASSERT_GE(blackouts[i].end, 0) << "blackout span left open";
    EXPECT_EQ(brownouts[i].end - brownouts[i].begin, er.brownout)
        << "engine " << er.engine_name;
    EXPECT_EQ(blackouts[i].end - blackouts[i].begin, er.blackout)
        << "engine " << er.engine_name;
    // Phases are contiguous: blackout starts when brownout ends.
    EXPECT_EQ(blackouts[i].begin, brownouts[i].end);
    EXPECT_EQ(brownouts[i].args, TraceArgStr("engine", er.engine_name));
  }
}

TEST_F(UpgradeTest, PendingOneSidedOpsCompleteAfterUpgrade) {
  PonyEngine* ea = a_->CreatePonyEngine("engine0");
  PonyEngine* eb = b_->CreatePonyEngine("peer");
  auto ca = a_->CreateClient(ea, "app");
  auto cb = b_->CreateClient(eb, "peer_app");
  uint64_t region = cb->RegisterRegion(4096, false);
  cb->region(region)->data[7] = 123;

  // Issue a read, then IMMEDIATELY start the upgrade so the op is likely
  // in flight during the blackout.
  CpuCostSink cost;
  uint64_t op = ca->Read(eb->address(), region, 0, 64, &cost);
  ASSERT_NE(op, 0u);
  std::unique_ptr<SnapInstance> v2 = MakeNewInstance();
  UpgradeManager manager(sim_.get(), UpgradeParams{});
  bool done = false;
  manager.StartUpgrade(a_->snap(), v2.get(),
                       [&](const auto&) { done = true; });
  sim_->RunFor(3000 * kMsec);
  ASSERT_TRUE(done);
  // The pending op table moved with the engine; the (possibly
  // retransmitted) response completes to the surviving client.
  std::optional<PonyCompletion> completion;
  for (int i = 0; i < 100 && !completion.has_value(); ++i) {
    sim_->RunFor(10 * kMsec);
    completion = ca->PollCompletion(&cost);
  }
  ASSERT_TRUE(completion.has_value());
  EXPECT_EQ(completion->op_id, op);
  EXPECT_EQ(completion->status, PonyOpStatus::kOk);
  ASSERT_EQ(completion->data.size(), 64u);
  EXPECT_EQ(completion->data[7], 123);
}

}  // namespace
}  // namespace snap
