#include "src/sim/sharded_sim.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/util/logging.h"

namespace snap {

namespace {
// "Unreachable" sentinel for the closed lookahead matrix, far enough from
// kSimTimeNever that next + distance cannot overflow.
constexpr SimDuration kLookaheadInf = kSimTimeNever / 4;

int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

ShardedSim::ShardedSim(const Options& options) : options_(options) {
  SNAP_CHECK_GE(options_.num_shards, 1);
  SNAP_CHECK_GT(options_.lookahead, 0);
  sims_.reserve(options_.num_shards);
  for (int i = 0; i < options_.num_shards; ++i) {
    sims_.push_back(std::make_unique<Simulator>(options_.seed));
  }
  const int n = options_.num_shards;
  pair_lookahead_.assign(static_cast<size_t>(n) * n, options_.lookahead);
  fired_at_epoch_start_.resize(n, 0);
  next_scratch_.resize(n);
  horizon_scratch_.resize(n);
  targets_.resize(n, 0);
}

ShardedSim::~ShardedSim() { StopWorkers(); }

void ShardedSim::set_pair_lookahead(int src, int dst, SimDuration lookahead) {
  SNAP_CHECK_GE(src, 0);
  SNAP_CHECK_LT(src, num_shards());
  SNAP_CHECK_GE(dst, 0);
  SNAP_CHECK_LT(dst, num_shards());
  SNAP_CHECK_GT(lookahead, 0);
  pair_lookahead_[src * num_shards() + dst] = lookahead;
  closure_dirty_ = true;
}

void ShardedSim::RefreshLookaheadClosure() {
  closure_dirty_ = false;
  const int n = num_shards();
  closed_lookahead_.assign(static_cast<size_t>(n) * n, kLookaheadInf);
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s != d) closed_lookahead_[s * n + d] = pair_lookahead_[s * n + d];
    }
  }
  // Floyd-Warshall min-plus closure. With the diagonal initialized to
  // infinity, closed[d][d] converges to the shortest cycle through d —
  // the earliest a shard's own work can come back at it via a relay.
  for (int k = 0; k < n; ++k) {
    for (int s = 0; s < n; ++s) {
      const SimDuration sk = closed_lookahead_[s * n + k];
      if (sk >= kLookaheadInf) continue;
      for (int d = 0; d < n; ++d) {
        const SimDuration kd = closed_lookahead_[k * n + d];
        if (kd >= kLookaheadInf) continue;
        SimDuration& sd = closed_lookahead_[s * n + d];
        sd = std::min(sd, sk + kd);
      }
    }
  }
}

SimTime ShardedSim::NextEventTime() const {
  SimTime next = kSimTimeNever;
  for (const auto& sim : sims_) {
    next = std::min(next, sim->NextEventTime());
  }
  return next;
}

void ShardedSim::RunBarrierHooks() {
  if (!profile_.enabled) {
    for (auto& hook : barrier_hooks_) hook();
  } else {
    const int64_t t0 = WallNowNs();
    for (auto& hook : barrier_hooks_) hook();
    profile_.exchange_wall_ns += WallNowNs() - t0;
  }
  // Barrier-driven time-series cadence: sample every shard's registry
  // whenever barrier time has advanced a full cadence past the previous
  // sample. Pure observation on the coordinator with all shards parked.
  if (series_cadence_ > 0 &&
      (last_series_sample_ < 0 ||
       now_ >= last_series_sample_ + series_cadence_)) {
    for (auto& sim : sims_) {
      sim->telemetry().SampleSeriesAt(now_);
    }
    last_series_sample_ = now_;
  }
}

void ShardedSim::RunUntil(SimTime until) {
  SNAP_CHECK_GE(until, now_);
  const int n = num_shards();
  while (true) {
    // Barrier point: all shards are parked. Exchange staged cross-shard
    // work (hooks schedule arrival events), then compute per-destination
    // horizons from the post-exchange event set.
    RunBarrierHooks();
    if (closure_dirty_) RefreshLookaheadClosure();
    for (int s = 0; s < n; ++s) {
      next_scratch_[s] = sims_[s]->NextEventTime();
    }
    SimTime min_horizon = kSimTimeNever;
    for (int d = 0; d < n; ++d) {
      SimTime h = kSimTimeNever;
      for (int s = 0; s < n; ++s) {
        if (next_scratch_[s] == kSimTimeNever) continue;
        const SimDuration dist = closed_lookahead_[s * n + d];
        if (dist >= kLookaheadInf) continue;
        h = std::min(h, next_scratch_[s] + dist);
      }
      horizon_scratch_[d] = h;
      min_horizon = std::min(min_horizon, h);
    }
    if (min_horizon >= until) {
      // Final chunk: run inclusive to `until`, mirroring
      // Simulator::RunUntil semantics so a sharded run observes the same
      // clock landings (and the same events-at-until execution) as the
      // serial engine at every RunFor boundary. With one shard — or all
      // shards idle — this is the only epoch.
      for (int d = 0; d < n; ++d) targets_[d] = until;
      RunShardsToTargets();
      now_ = until;
      if (profile_.enabled) RecordEpochProfile();
      // One more exchange so work staged during the final chunk is
      // delivered (its arrivals land at > until and run next time).
      RunBarrierHooks();
      return;
    }
    // Interior epoch: destination d may run events strictly before its
    // own horizon. A handoff staged by shard s during this epoch has
    // wire_time >= next(s), hence arrival >= next(s) + L(s, d) >= H(d) —
    // beyond every target granted here — so the barrier-time exchange
    // never rewinds a shard's clock. Per-shard horizons are not monotone
    // across epochs (a previously idle shard can pull one back in), but
    // Simulator::RunUntil treats a stale lower target as a no-op and the
    // safety bound above is per-epoch, so that is harmless.
    for (int d = 0; d < n; ++d) {
      targets_[d] = horizon_scratch_[d] == kSimTimeNever
                        ? until
                        : std::min(horizon_scratch_[d] - 1, until);
    }
    RunShardsToTargets();
    now_ = min_horizon;  // strictly increases: every H > global next
    if (profile_.enabled) RecordEpochProfile();
  }
}

void ShardedSim::RunShardsToTargets() {
  ++progress_.epochs;
  for (int i = 0; i < num_shards(); ++i) {
    fired_at_epoch_start_[i] = sims_[i]->event_queue().stats().fired;
  }
  const bool prof = profile_.enabled;
  int64_t epoch_t0 = 0;
  if (prof) {
    std::fill(busy_scratch_ns_.begin(), busy_scratch_ns_.end(), 0);
    epoch_t0 = WallNowNs();
  }
  int threads = std::min(options_.num_threads, num_shards());
  if (threads <= 1) {
    for (int i = 0; i < num_shards(); ++i) {
      if (prof) {
        const int64_t t0 = WallNowNs();
        sims_[i]->RunUntil(targets_[i]);
        busy_scratch_ns_[i] = WallNowNs() - t0;
      } else {
        sims_[i]->RunUntil(targets_[i]);
      }
    }
  } else {
    if (!workers_started_) StartWorkers();
    start_barrier_->arrive_and_wait();
    done_barrier_->arrive_and_wait();
  }
  const int64_t epoch_wall =
      prof ? std::max<int64_t>(WallNowNs() - epoch_t0, 0) : 0;
  int64_t max_delta = 0;
  for (int i = 0; i < num_shards(); ++i) {
    int64_t delta =
        sims_[i]->event_queue().stats().fired - fired_at_epoch_start_[i];
    progress_.events_fired += delta;
    max_delta = std::max(max_delta, delta);
    if (prof) {
      // busy_scratch_ns_[i] was written by whichever thread executed
      // shard i; the done barrier ordered that write before this read.
      ShardProfile& sp = profile_.shards[i];
      sp.busy_ns += busy_scratch_ns_[i];
      sp.wait_ns += std::max<int64_t>(epoch_wall - busy_scratch_ns_[i], 0);
      sp.events += delta;
      sp.max_epoch_events = std::max(sp.max_epoch_events, delta);
      delta_scratch_[i] = delta;
    }
  }
  progress_.critical_path_events += max_delta;
  if (prof) profile_.epoch_wall_ns += epoch_wall;
}

// Deterministic per-epoch profiler outputs, recorded on the coordinator
// at the barrier time the epoch just reached (now_). Wall-clock numbers
// never flow through here — only event counts, which are a pure function
// of the (deterministic) epoch structure.
void ShardedSim::RecordEpochProfile() {
  const int n = num_shards();
  int64_t total = 0;
  int64_t max_delta = 0;
  for (int i = 0; i < n; ++i) {
    const int64_t delta = delta_scratch_[i];
    total += delta;
    max_delta = std::max(max_delta, delta);
    prof_epochs_[i]->Increment();
    prof_epoch_events_[i]->Add(delta);
    if (!tracers_.empty() && delta > 0) {
      tracers_[i]->CounterValueOnTrack(now_, TraceRecorder::kProfilerTrack,
                                       "prof/epoch_events", delta);
    }
  }
  if (!tracers_.empty() && total > 0 && n > 1) {
    // Imbalance of this epoch: busiest shard's share of the work relative
    // to a perfectly even split (100 = balanced, n*100 = one shard did
    // everything). Integer arithmetic keeps the trace byte-stable.
    tracers_[0]->CounterValueOnTrack(now_, TraceRecorder::kProfilerTrack,
                                     "prof/epoch_imbalance_pct",
                                     max_delta * 100 * n / total);
  }
}

void ShardedSim::EnableProfiling() {
  if (profile_.enabled) return;
  profile_.enabled = true;
  const int n = num_shards();
  profile_.shards.resize(n);
  busy_scratch_ns_.assign(n, 0);
  delta_scratch_.assign(n, 0);
  prof_epoch_events_.resize(n);
  prof_epochs_.resize(n);
  for (int s = 0; s < n; ++s) {
    Telemetry& t = sims_[s]->telemetry();
    const std::string base = "sim/shard/" + std::to_string(s);
    prof_epoch_events_[s] = t.GetCounter(base + "/epoch_events");
    prof_epochs_[s] = t.GetCounter(base + "/epochs");
    // Deterministic gauge: the busiest single epoch this shard has run.
    t.RegisterGauge(base + "/max_epoch_events", [this, s]() -> int64_t {
      return profile_.shards[s].max_epoch_events;
    });
  }
}

void ShardedSim::EnableSeriesSampling(SimDuration cadence,
                                      SimDuration bucket_width,
                                      int max_buckets) {
  SNAP_CHECK_GT(cadence, 0);
  series_cadence_ = cadence;
  if (bucket_width <= 0) bucket_width = cadence;
  for (auto& sim : sims_) {
    sim->telemetry().EnableSeriesSampling(bucket_width, max_buckets);
  }
}

std::string ShardedSim::ProfileJson() const {
  std::string out = "{\"enabled\":";
  out += profile_.enabled ? "true" : "false";
  out += ",\"num_shards\":" + std::to_string(num_shards());
  out += ",\"num_threads\":" +
         std::to_string(std::min(options_.num_threads, num_shards()));
  out += ",\"epochs\":" + std::to_string(progress_.epochs);
  out += ",\"events_fired\":" + std::to_string(progress_.events_fired);
  out += ",\"critical_path_events\":" +
         std::to_string(progress_.critical_path_events);
  out += ",\"epoch_wall_ns\":" + std::to_string(profile_.epoch_wall_ns);
  out += ",\"exchange_wall_ns\":" + std::to_string(profile_.exchange_wall_ns);
  out += ",\"shards\":[";
  for (size_t i = 0; i < profile_.shards.size(); ++i) {
    if (i > 0) out += ",";
    const ShardProfile& sp = profile_.shards[i];
    out += "{\"busy_ns\":" + std::to_string(sp.busy_ns) +
           ",\"wait_ns\":" + std::to_string(sp.wait_ns) +
           ",\"events\":" + std::to_string(sp.events) +
           ",\"max_epoch_events\":" + std::to_string(sp.max_epoch_events) +
           "}";
  }
  out += "]}";
  return out;
}

void ShardedSim::StartWorkers() {
  num_worker_threads_ = std::min(options_.num_threads, num_shards());
  start_barrier_ = std::make_unique<std::barrier<>>(num_worker_threads_ + 1);
  done_barrier_ = std::make_unique<std::barrier<>>(num_worker_threads_ + 1);
  workers_.reserve(num_worker_threads_);
  for (int w = 0; w < num_worker_threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
  workers_started_ = true;
}

void ShardedSim::StopWorkers() {
  if (!workers_started_) return;
  stop_.store(true, std::memory_order_relaxed);
  start_barrier_->arrive_and_wait();
  for (auto& t : workers_) t.join();
  workers_.clear();
  workers_started_ = false;
}

void ShardedSim::WorkerLoop(int worker_index) {
  // profile_.enabled is set (if ever) before the first Run*, which is
  // before StartWorkers, so reading it here is race-free.
  const bool prof = profile_.enabled;
  while (true) {
    start_barrier_->arrive_and_wait();
    if (stop_.load(std::memory_order_relaxed)) return;
    for (int i = worker_index; i < num_shards(); i += num_worker_threads_) {
      if (prof) {
        const int64_t t0 = WallNowNs();
        sims_[i]->RunUntil(targets_[i]);
        busy_scratch_ns_[i] = WallNowNs() - t0;
      } else {
        sims_[i]->RunUntil(targets_[i]);
      }
    }
    done_barrier_->arrive_and_wait();
  }
}

std::map<std::string, int64_t> ShardedSim::MergedTelemetryValues() const {
  std::map<std::string, int64_t> merged;
  for (const auto& sim : sims_) {
    for (const auto& [name, value] : sim->telemetry().SnapshotValues()) {
      merged[name] += value;
    }
  }
  return merged;
}

void ShardedSim::EnableTracing() {
  if (!tracers_.empty()) return;
  tracers_.reserve(sims_.size());
  for (auto& sim : sims_) {
    tracers_.push_back(std::make_unique<TraceRecorder>());
    sim->set_tracer(tracers_.back().get());
  }
}

std::unique_ptr<TraceRecorder> ShardedSim::MergedTrace() const {
  auto merged = std::make_unique<TraceRecorder>();
  struct Ref {
    SimTime ts;
    int shard;
    size_t index;
  };
  std::vector<Ref> refs;
  for (int s = 0; s < static_cast<int>(tracers_.size()); ++s) {
    const auto& events = tracers_[s]->events();
    for (size_t i = 0; i < events.size(); ++i) {
      refs.push_back(Ref{events[i].ts, s, i});
    }
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.index < b.index;
  });
  for (const Ref& r : refs) {
    TraceEvent event = tracers_[r.shard]->events()[r.index];
    event.tid += r.shard * kShardTrackStride;
    merged->AppendRaw(std::move(event));
  }
  return merged;
}

}  // namespace snap
