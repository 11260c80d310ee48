#include "src/testing/seed_sweep.h"

#include <deque>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "src/apps/simhost.h"
#include "src/net/shard_net.h"
#include "src/qos/tenant.h"
#include "src/sim/sharded_sim.h"
#include "src/util/logging.h"

namespace snap {

namespace {

// Self-rescheduling simulation event; fn returning false stops the chain.
class Periodic {
 public:
  Periodic(Simulator* sim, SimDuration period, std::function<bool()> fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {}
  ~Periodic() { handle_.Cancel(); }

  void Start() { Arm(); }
  void Stop() { handle_.Cancel(); }

 private:
  void Arm() {
    handle_ = sim_->Schedule(period_, [this] {
      if (fn_()) {
        Arm();
      }
    });
  }

  Simulator* sim_;
  SimDuration period_;
  std::function<bool()> fn_;
  EventHandle handle_;
};

}  // namespace

SeedSweepRunner::SeedSweepRunner(SeedSweepOptions options)
    : options_(std::move(options)) {
  if (options_.profiles.empty()) {
    options_.profiles = DefaultProfiles();
  }
  SNAP_CHECK_GE(options_.message_bytes, kChaosPayloadMinBytes);
}

std::vector<ChaosProfile> SeedSweepRunner::DefaultProfiles() {
  std::vector<ChaosProfile> profiles;

  // ~5% loss arriving in bursts of ~4 packets (stationary bad-state
  // fraction 0.02/0.27 ~= 7.4%, loss_bad 0.5).
  ChaosProfile burst;
  burst.name = "burst-loss-5";
  burst.p_good_to_bad = 0.02;
  burst.p_bad_to_good = 0.25;
  burst.loss_good = 0.005;
  burst.loss_bad = 0.5;
  profiles.push_back(burst);

  ChaosProfile reorder;
  reorder.name = "reorder-k8";
  reorder.reorder_probability = 0.08;
  reorder.reorder_span = 8;
  profiles.push_back(reorder);

  ChaosProfile dup;
  dup.name = "dup-2";
  dup.duplicate_probability = 0.02;
  profiles.push_back(dup);

  ChaosProfile corrupt;
  corrupt.name = "corrupt-1";
  corrupt.corrupt_probability = 0.01;
  profiles.push_back(corrupt);

  ChaosProfile combined;
  combined.name = "combined";
  combined.p_good_to_bad = 0.01;
  combined.p_bad_to_good = 0.3;
  combined.loss_good = 0.002;
  combined.loss_bad = 0.4;
  combined.reorder_probability = 0.04;
  combined.reorder_span = 8;
  combined.duplicate_probability = 0.01;
  combined.corrupt_probability = 0.005;
  combined.jitter_max = 3 * kUsec;
  profiles.push_back(combined);

  return profiles;
}

ChaosProfile SeedSweepRunner::AggressorTenantProfile() {
  ChaosProfile profile;
  profile.name = "aggressor-tenant";
  profile.p_good_to_bad = 0.01;
  profile.p_bad_to_good = 0.3;
  profile.loss_good = 0.002;
  profile.loss_bad = 0.3;
  profile.reorder_probability = 0.02;
  profile.reorder_span = 8;
  profile.jitter_max = 2 * kUsec;
  return profile;
}

SweepRunResult SeedSweepRunner::RunOne(uint64_t seed,
                                       const ChaosProfile& profile) {
  const SeedSweepOptions& opt = options_;
  const bool sharded_mode = opt.shards > 1;
  const NicParams nic_params{};

  // Exactly one of (serial simulator + fabric) or (sharded sim + fabric
  // group) exists; the rest of the scenario is written against sim_a/sim_b
  // and fabric_a/fabric_b so both paths share one construction order.
  std::optional<Simulator> serial_sim;
  std::optional<Fabric> serial_fabric;
  std::optional<ShardedSim> sharded;
  std::optional<ShardedFabricGroup> shard_group;
  TraceRecorder trace_recorder;
  if (!sharded_mode) {
    serial_sim.emplace(seed);
    if (opt.enable_trace) {
      serial_sim->set_tracer(&trace_recorder);
    }
    serial_fabric.emplace(&*serial_sim, nic_params);
    serial_fabric->set_random_drop_probability(opt.fabric_drop_probability);
  } else {
    ShardedSim::Options shard_options;
    shard_options.num_shards = opt.shards;
    shard_options.seed = seed;
    shard_options.lookahead = nic_params.propagation_delay;
    shard_options.num_threads = opt.shard_threads;
    sharded.emplace(shard_options);
    if (opt.enable_trace) {
      sharded->EnableTracing();
    }
    if (opt.enable_profiling) {
      sharded->EnableProfiling();
      sharded->EnableSeriesSampling(opt.sample_period);
    }
    shard_group.emplace(&*sharded, nic_params);
    if (opt.enable_profiling) {
      shard_group->EnableProfiling();
    }
    for (int s = 0; s < sharded->num_shards(); ++s) {
      shard_group->fabric(s)->set_random_drop_probability(
          opt.fabric_drop_probability);
    }
  }
  PonyDirectory directory;

  SimHostOptions host_options;
  host_options.group.mode = SchedulingMode::kDedicatedCores;
  host_options.group.dedicated_cores = {0};
  const bool placed = sharded_mode && opt.shard_of_host.size() >= 2;
  const int shard_a = placed ? opt.shard_of_host[0] : 0;
  const int shard_b =
      sharded_mode ? (placed ? opt.shard_of_host[1] : 1 % opt.shards) : 0;
  Simulator* sim_a = sharded_mode ? sharded->sim(shard_a) : &*serial_sim;
  Simulator* sim_b = sharded_mode ? sharded->sim(shard_b) : &*serial_sim;
  Fabric* fabric_a =
      sharded_mode ? shard_group->fabric(shard_a) : &*serial_fabric;
  Fabric* fabric_b =
      sharded_mode ? shard_group->fabric(shard_b) : &*serial_fabric;
  SimHost a(sim_a, fabric_a, &directory, host_options);
  SimHost b(sim_b, fabric_b, &directory, host_options);
  PonyEngine* ea = a.CreatePonyEngine("ea");
  PonyEngine* eb = b.CreatePonyEngine("eb");
  auto ca = a.CreateClient(ea, "chaosA");
  auto cb = b.CreateClient(eb, "chaosB");

  // QoS aggressor-tenant mode: a second engine on B receives bulk traffic
  // from a second client on A, so ea schedules two tenants (victim flow
  // vs. aggressor flow) via DRR and A's NIC runs per-tenant WFQ. Fully
  // gated: with qos_aggressor off nothing below allocates or schedules.
  qos::TenantRegistry registry;
  PonyEngine* eb2 = nullptr;
  std::unique_ptr<PonyClient> ca2;
  std::unique_ptr<PonyClient> cb2;
  if (opt.qos_aggressor) {
    qos::TenantSpec victim;
    victim.id = 1;
    victim.name = "victim";
    victim.weight = 3;
    qos::TenantSpec aggressor;
    aggressor.id = 2;
    aggressor.name = "aggressor";
    aggressor.weight = 1;
    // Throttle the aggressor's submissions through the client-side token
    // bucket as well, so sweeps exercise admission control under chaos
    // (generous enough that the run still completes).
    aggressor.admission_rate_bytes_per_sec = 4e8;
    aggressor.admission_burst_bytes = 32 * 1024;
    registry.Register(victim);
    registry.Register(aggressor);
    eb2 = b.CreatePonyEngine("eb2");
    ca2 = a.CreateClient(ea, "aggrA");
    cb2 = b.CreateClient(eb2, "aggrB");
    ca->SetTenant(victim);
    ca2->SetTenant(aggressor);
    ea->EnableQos(&registry);
    eb->EnableQos(&registry);
    eb2->EnableQos(&registry);
    a.nic()->EnableQosTx(&registry);
  }

  ChaosProfile seeded = profile;
  seeded.seed = seed;
  // Chaos links attach to the destination host's own fabric: in a sharded
  // run the link then lives on that host's shard and processes arrivals
  // in the arrival time frame (same absolute delivery times as serial).
  auto chaos_to_a = ChaosLink::AttachToFabric(fabric_a, a.host_id(), seeded);
  auto chaos_to_b = ChaosLink::AttachToFabric(fabric_b, b.host_id(), seeded);

  InvariantChecker checker(sim_a);
  if (sharded_mode) {
    for (int s = 0; s < sharded->num_shards(); ++s) {
      checker.AttachFabric(shard_group->fabric(s));
    }
  } else {
    checker.AttachFabric(&*serial_fabric);
  }
  checker.AttachChaos(chaos_to_a.get());
  checker.AttachChaos(chaos_to_b.get());
  std::vector<const PonyEngine*> engines{ea, eb};
  if (eb2 != nullptr) {
    engines.push_back(eb2);
  }
  checker.SetEngineLister([engines] { return engines; });
  checker.WatchClient(ca.get(), "A");
  checker.WatchClient(cb.get(), "B");
  if (opt.qos_aggressor) {
    checker.WatchClient(cb2.get(), "AGG");
  }

  // One CPU-cost sink per host so each sink is written by exactly one
  // shard. The sinks are write-only accumulators, so the split does not
  // change any simulation observable in the serial path either.
  CpuCostSink sink_a;
  CpuCostSink sink_b;
  std::vector<uint64_t> streams;
  for (int s = 0; s < opt.num_streams; ++s) {
    uint64_t id = ca->CreateStream(eb->address());
    streams.push_back(id);
    checker.ExpectDeliveries("B", id, opt.messages_per_stream);
    checker.ExpectDeliveries("A", id, opt.messages_per_stream);  // echoes
  }
  const int64_t total = static_cast<int64_t>(opt.num_streams) *
                        opt.messages_per_stream;
  uint64_t aggressor_stream = 0;
  if (opt.qos_aggressor) {
    aggressor_stream = ca2->CreateStream(eb2->address());
    checker.ExpectDeliveries("AGG", aggressor_stream,
                             opt.aggressor_messages);
  }

  // Sender: one message per tick, round-robin across streams. Drivers run
  // on their host's simulator, so in a sharded run each one executes on
  // its host's shard thread.
  int64_t sent = 0;
  Periodic sender(sim_a, opt.send_interval, [&]() -> bool {
    if (sent >= total) {
      return false;
    }
    int s = static_cast<int>(sent % opt.num_streams);
    uint64_t index = static_cast<uint64_t>(sent / opt.num_streams);
    auto payload =
        EncodeChaosPayload(streams[s], index, opt.message_bytes);
    if (ca->SendMessage(eb->address(), streams[s], 0, std::move(payload),
                        &sink_a) == 0) {
      return true;  // command queue full; retry next tick
    }
    ++sent;
    return true;
  });
  sender.Start();

  // Echo server on B: drain the message ring, bounce every payload back on
  // the stream it arrived on (bound at A, so the echo lands in ca's ring).
  bool stop_echo = false;
  std::deque<std::pair<uint64_t, std::vector<uint8_t>>> echo_retry;
  Periodic echo(sim_b, opt.echo_poll_interval, [&]() -> bool {
    if (stop_echo) {
      return false;
    }
    while (!echo_retry.empty()) {
      auto& [stream_id, data] = echo_retry.front();
      if (cb->SendMessage(ea->address(), stream_id, 0, data, &sink_b) == 0) {
        return true;
      }
      echo_retry.pop_front();
    }
    while (true) {
      auto msg = cb->PollMessage(&sink_b);
      if (!msg.has_value()) {
        break;
      }
      if (cb->SendMessage(ea->address(), msg->stream_id, 0, msg->data,
                          &sink_b) == 0) {
        echo_retry.emplace_back(msg->stream_id, std::move(msg->data));
      }
    }
    return true;
  });
  echo.Start();

  // Aggressor tenant: floods eb2 with bulk messages; a drain loop on cb2
  // keeps its message ring from stalling deliveries.
  int64_t aggr_sent = 0;
  Periodic aggressor_sender(
      sim_a, opt.aggressor_send_interval, [&]() -> bool {
        if (aggr_sent >= opt.aggressor_messages) {
          return false;
        }
        auto payload = EncodeChaosPayload(aggressor_stream,
                                          static_cast<uint64_t>(aggr_sent),
                                          opt.aggressor_message_bytes);
        if (ca2->SendMessage(eb2->address(), aggressor_stream, 0,
                             std::move(payload), &sink_a) == 0) {
          return true;  // queue full or admission-throttled; retry
        }
        ++aggr_sent;
        return true;
      });
  // Runs through the quiesce drain too (polling never blocks quiesce).
  Periodic aggressor_drain(sim_b, opt.echo_poll_interval, [&]() -> bool {
    while (cb2->PollMessage(&sink_b).has_value()) {
    }
    return true;
  });
  if (opt.qos_aggressor) {
    aggressor_sender.Start();
    aggressor_drain.Start();
  }

  if (sharded_mode) {
    // No sampling event: an extra scheduled event would change the epoch
    // structure with shard count. The checker samples on the coordinator
    // at epoch barriers instead (same invariants, coarser cadence).
    checker.StartBarrierSampling(opt.sample_period);
    ShardedSim* sharded_ptr = &*sharded;
    sharded->AddBarrierHook([&checker, sharded_ptr] {
      checker.SampleAtBarrier(sharded_ptr->now());
    });
  } else {
    checker.StartSampling(opt.sample_period);
  }

  auto run_for = [&](SimDuration d) {
    if (sharded_mode) {
      sharded->RunFor(d);
    } else {
      serial_sim->RunFor(d);
    }
  };
  auto now = [&]() -> SimTime {
    return sharded_mode ? sharded->now() : serial_sim->now();
  };

  auto all_done = [&]() -> bool {
    int64_t at_a = 0;
    int64_t at_b = 0;
    for (uint64_t id : streams) {
      at_a += checker.delivered("A", id);
      at_b += checker.delivered("B", id);
    }
    if (opt.qos_aggressor &&
        checker.delivered("AGG", aggressor_stream) <
            opt.aggressor_messages) {
      return false;
    }
    return at_a >= total && at_b >= total;
  };
  while (now() < opt.run_limit && !all_done()) {
    run_for(1 * kMsec);
  }
  SweepRunResult result;
  result.completed = all_done();
  stop_echo = true;

  // Drain to quiesce: reorder holds time out (<= reorder_max_hold), lost
  // tail packets retransmit (RTO >= 400us), final acks and credit grants
  // flush. Fixed-step deterministic loop.
  auto quiesced = [&]() -> bool {
    if (chaos_to_a->held_now() > 0 || chaos_to_b->held_now() > 0) {
      return false;
    }
    bool idle = true;
    for (const PonyEngine* e : engines) {
      e->ForEachFlow([&idle](const Flow& f) {
        if (f.unacked_packets() > 0 || f.tx_backlog() > 0) {
          idle = false;
        }
      });
    }
    return idle;
  };
  run_for(10 * kMsec);
  for (int i = 0; i < 100 && !quiesced(); ++i) {
    run_for(10 * kMsec);
  }
  checker.StopSampling();
  checker.CheckFinal(/*require_quiesce=*/true);

  result.seed = seed;
  result.profile = profile.name;
  result.ok = checker.ok();
  result.violations = checker.violations();
  result.trace_digest = checker.TraceDigest();
  result.finish_time = now();
  result.delivered_messages = checker.total_delivered();
  for (const ChaosLink* link : {chaos_to_a.get(), chaos_to_b.get()}) {
    result.chaos_dropped += link->stats().dropped;
    result.chaos_duplicated += link->stats().duplicated;
    result.chaos_corrupted += link->stats().corrupted;
    result.chaos_reordered += link->stats().reordered;
  }
  for (const PonyEngine* e : engines) {
    result.crc_drops += e->stats().crc_drops;
    result.messages_held_for_order += e->stats().messages_held_for_order;
    e->ForEachFlow([&result](const Flow& f) {
      result.retransmits += f.stats().retransmits;
      result.spurious_retransmits += f.stats().spurious_retransmits;
    });
  }
  if (sharded_mode) {
    result.telemetry = sharded->MergedTelemetryValues();
    result.epochs = sharded->progress().epochs;
    ShardedFabricGroup::ExchangeStats xs = shard_group->exchange_stats();
    result.exchange_handoffs = xs.handoffs;
    result.exchange_cross_shard = xs.cross_shard;
    if (opt.enable_trace) {
      result.merged_trace_json = sharded->MergedTrace()->ToJson();
    }
  } else {
    result.telemetry = serial_sim->telemetry().SnapshotValues();
    if (opt.enable_trace) {
      result.merged_trace_json = trace_recorder.ToJson();
    }
  }
  return result;
}

std::vector<SweepRunResult> SeedSweepRunner::RunAll() {
  std::vector<SweepRunResult> results;
  for (const ChaosProfile& profile : options_.profiles) {
    for (int i = 0; i < options_.num_seeds; ++i) {
      uint64_t seed = options_.first_seed + static_cast<uint64_t>(i);
      SweepRunResult result = RunOne(seed, profile);
      if (options_.check_replay) {
        SweepRunResult replay = RunOne(seed, profile);
        result.replay_identical =
            replay.trace_digest == result.trace_digest &&
            replay.delivered_messages == result.delivered_messages &&
            replay.violations.size() == result.violations.size();
      }
      results.push_back(std::move(result));
    }
  }
  return results;
}

std::string SeedSweepRunner::SummaryTable(
    const std::vector<SweepRunResult>& results) {
  struct Agg {
    int runs = 0;
    int failed = 0;
    int incomplete = 0;
    int replay_mismatch = 0;
    int64_t delivered = 0;
    int64_t dropped = 0;
    int64_t duplicated = 0;
    int64_t corrupted = 0;
    int64_t reordered = 0;
    int64_t crc_drops = 0;
    int64_t retransmits = 0;
    int64_t spurious = 0;
    int64_t held = 0;
  };
  std::map<std::string, Agg> by_profile;
  std::vector<std::string> order;
  for (const SweepRunResult& r : results) {
    if (by_profile.find(r.profile) == by_profile.end()) {
      order.push_back(r.profile);
    }
    Agg& agg = by_profile[r.profile];
    ++agg.runs;
    if (!r.ok) ++agg.failed;
    if (!r.completed) ++agg.incomplete;
    if (!r.replay_identical) ++agg.replay_mismatch;
    agg.delivered += r.delivered_messages;
    agg.dropped += r.chaos_dropped;
    agg.duplicated += r.chaos_duplicated;
    agg.corrupted += r.chaos_corrupted;
    agg.reordered += r.chaos_reordered;
    agg.crc_drops += r.crc_drops;
    agg.retransmits += r.retransmits;
    agg.spurious += r.spurious_retransmits;
    agg.held += r.messages_held_for_order;
  }
  std::ostringstream os;
  os << "profile        runs fail incompl replay! delivered  drop  dup "
        "corrupt crc-drop  retx spur-retx held\n";
  for (const std::string& name : order) {
    const Agg& agg = by_profile[name];
    os.width(14);
    os << std::left << name << std::right << " ";
    os.width(4);
    os << agg.runs << " ";
    os.width(4);
    os << agg.failed << " ";
    os.width(7);
    os << agg.incomplete << " ";
    os.width(7);
    os << agg.replay_mismatch << " ";
    os.width(9);
    os << agg.delivered << " ";
    os.width(5);
    os << agg.dropped << " ";
    os.width(4);
    os << agg.duplicated << " ";
    os.width(7);
    os << agg.corrupted << " ";
    os.width(8);
    os << agg.crc_drops << " ";
    os.width(5);
    os << agg.retransmits << " ";
    os.width(9);
    os << agg.spurious << " ";
    os.width(4);
    os << agg.held << "\n";
  }
  return os.str();
}

}  // namespace snap
