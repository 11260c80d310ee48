#include "src/live/live_scheduler.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <utility>

#include "src/util/logging.h"

namespace snap {

// Park bound of a worker with no executors: "until rung", yet short
// enough that the condition-variable deadline cannot overflow.
constexpr int64_t kParkUntilRungNs = 3600 * kSec;

LiveScheduler::LiveScheduler(int64_t epoch_ns, Options options)
    : options_(std::move(options)),
      epoch_ns_(epoch_ns),
      policy_(options_.compacting_slo_ns) {}

LiveScheduler::~LiveScheduler() { Stop(); }

int LiveScheduler::AddExecutor(LiveExecutor* executor) {
  SNAP_CHECK(!started_) << "AddExecutor after Start";
  executors_.push_back(executor);
  return static_cast<int>(executors_.size()) - 1;
}

void LiveScheduler::EnableTracing() {
  SNAP_CHECK(!started_) << "EnableTracing is setup-phase only";
  tracing_ = true;
}

void LiveScheduler::EnableProfileDump(const std::string& path,
                                      int interval_ms) {
  SNAP_CHECK(!started_) << "EnableProfileDump is setup-phase only";
  profile_path_ = path;
  profile_interval_ms_ = interval_ms;
}

int LiveScheduler::InitialWorkerFor(int exec_index) const {
  switch (options_.mode) {
    case SchedulingMode::kDedicatedCores:
      return exec_index % static_cast<int>(workers_.size());
    case SchedulingMode::kSpreadingEngines:
      return exec_index;
    case SchedulingMode::kCompactingEngines:
      return 0;  // everything starts compacted on the primary
  }
  return 0;
}

void LiveScheduler::Start() {
  SNAP_CHECK(!started_) << "scheduler already started";
  const int n = static_cast<int>(executors_.size());
  SNAP_CHECK(n > 0) << "no executors";
  started_ = true;
  stop_.store(false, std::memory_order_relaxed);

  int num_workers = n;
  switch (options_.mode) {
    case SchedulingMode::kDedicatedCores:
      if (options_.dedicated_workers > 0) {
        num_workers = options_.dedicated_workers;
      }
      num_workers = std::min(num_workers, n);
      break;
    case SchedulingMode::kSpreadingEngines:
      num_workers = n;
      break;
    case SchedulingMode::kCompactingEngines:
      num_workers = std::max(1, options_.max_workers);
      break;
  }

  // Build every worker before any thread starts: doorbell addresses must
  // be stable for SetWakeTarget and cross-worker handoffs.
  workers_.clear();
  for (int w = 0; w < num_workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->index = w;
    for (int e = 0; e < n; ++e) {
      worker->passes_by_exec.push_back(
          std::make_unique<std::atomic<int64_t>>(0));
    }
    if (tracing_) {
      worker->tracer = std::make_unique<TraceRecorder>();
    }
    workers_.push_back(std::move(worker));
  }

  owner_.clear();
  placement_.assign(static_cast<size_t>(num_workers), {});
  for (int e = 0; e < n; ++e) {
    int w = InitialWorkerFor(e);
    placement_[static_cast<size_t>(w)].push_back(e);
    owner_.push_back(std::make_unique<std::atomic<int>>(w));
    workers_[w]->local.push_back(executors_[e]);
    workers_[w]->local_index.push_back(e);
    executors_[e]->SetWakeTarget(&workers_[w]->doorbell);
    executors_[e]->MarkRunning(true);
  }

  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { WorkerLoop(w); });
  }
  if (options_.mode == SchedulingMode::kCompactingEngines ||
      (!profile_path_.empty() && profile_interval_ms_ > 0)) {
    control_thread_ = std::thread([this] { ControlLoop(); });
  }
}

void LiveScheduler::Stop() {
  if (!started_ || stopped_) {
    return;
  }
  stopped_ = true;
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& worker : workers_) {
    worker->doorbell.Ring();
  }
  control_doorbell_.Ring();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
  if (control_thread_.joinable()) {
    control_thread_.join();
  }
  for (LiveExecutor* exec : executors_) {
    exec->SetWakeTarget(nullptr);
    exec->MarkRunning(false);
  }
  if (!profile_path_.empty()) {
    std::ofstream out(profile_path_);
    out << ProfileJson() << "\n";
  }
}

void LiveScheduler::DrainMailbox(Worker* w) {
  std::vector<Arrival> incoming;
  std::vector<Move> moves;
  {
    std::lock_guard<std::mutex> lock(w->mu);
    incoming.swap(w->incoming);
    moves.swap(w->moves);
    w->commands_pending.store(false, std::memory_order_release);
  }
  for (const Arrival& a : incoming) {
    w->local.push_back(a.exec);
    w->local_index.push_back(a.exec_index);
    w->migrations_in.fetch_add(1, std::memory_order_relaxed);
    // Arrival publication: the rebalancer sees owner == target and may
    // issue the next move for this executor.
    owner_[a.exec_index]->store(w->index, std::memory_order_release);
  }
  for (const Move& m : moves) {
    // The rebalancer only sends a move to the current owner, and never a
    // second one before the first lands, so the executor must be local.
    size_t i = 0;
    while (i < w->local.size() && w->local_index[i] != m.exec_index) {
      ++i;
    }
    SNAP_CHECK(i < w->local.size()) << "move for non-local executor";
    w->local.erase(w->local.begin() + static_cast<long>(i));
    w->local_index.erase(w->local_index.begin() + static_cast<long>(i));

    Worker* dest = workers_[m.to_worker].get();
    // Future Wake()s ring the destination; a wake already bound for this
    // worker is covered by the destination's bounded park.
    m.exec->SetWakeTarget(&dest->doorbell);
    migrations_.fetch_add(1, std::memory_order_relaxed);
    if (w->tracer != nullptr) {
      w->tracer->Instant(
          MonotonicTimeNs() - epoch_ns_, TraceRecorder::kSchedTrack,
          "engine_migrate", "live_sched",
          "{\"exec\":" + std::to_string(m.exec_index) +
              ",\"from\":" + std::to_string(w->index) +
              ",\"to\":" + std::to_string(m.to_worker) + "}");
    }
    {
      std::lock_guard<std::mutex> lock(dest->mu);
      dest->incoming.push_back(Arrival{m.exec, m.exec_index});
      dest->commands_pending.store(true, std::memory_order_release);
    }
    dest->doorbell.Ring();
  }
}

void LiveScheduler::WorkerLoop(Worker* w) {
  const int64_t spin_ns =
      options_.mode == SchedulingMode::kSpreadingEngines
          ? 0
          : options_.spin_before_park_ns;
  int64_t last_work = MonotonicTimeNs() - epoch_ns_;
  while (!stop_.load(std::memory_order_relaxed)) {
    // Consume before draining/polling: anything rung after this point
    // triggers another full pass instead of being absorbed by this one.
    w->doorbell.Consume();
    if (w->commands_pending.load(std::memory_order_acquire)) {
      DrainMailbox(w);
    }
    w->passes.fetch_add(1, std::memory_order_relaxed);
    const int64_t t0 = MonotonicTimeNs() - epoch_ns_;
    int work = 0;
    for (size_t i = 0; i < w->local.size(); ++i) {
      work += w->local[i]->RunPass();
      w->passes_by_exec[static_cast<size_t>(w->local_index[i])]->fetch_add(
          1, std::memory_order_relaxed);
    }
    const int64_t t1 = MonotonicTimeNs() - epoch_ns_;
    if (work > 0) {
      w->work_items.fetch_add(work, std::memory_order_relaxed);
      w->busy_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
      last_work = t1;
      continue;
    }
    if (t1 - last_work < spin_ns) {
      continue;  // dedicated/compacting busy-poll window
    }
    // An empty worker has no timer or peer to watch: arrivals and Stop()
    // ring its doorbell, so it parks until rung.
    int64_t bound =
        w->local.empty() ? kParkUntilRungNs : options_.max_park_ns;
    for (LiveExecutor* exec : w->local) {
      int64_t delay = exec->NextTimerDelayNs();
      if (delay >= 0) {
        bound = std::min(bound, delay);
      }
    }
    if (bound <= 0 || w->doorbell.pending() ||
        stop_.load(std::memory_order_relaxed)) {
      continue;
    }
    w->parks.fetch_add(1, std::memory_order_relaxed);
    if (w->tracer != nullptr) {
      w->tracer->Instant(t1, TraceRecorder::kSchedTrack, "exec_park",
                         "live_sched", TraceArgInt("bound_ns", bound));
    }
    const int64_t p0 = MonotonicTimeNs() - epoch_ns_;
    bool rung = w->doorbell.WaitFor(bound);
    const int64_t p1 = MonotonicTimeNs() - epoch_ns_;
    w->park_ns.fetch_add(p1 - p0, std::memory_order_relaxed);
    if (w->tracer != nullptr) {
      w->tracer->Instant(p1, TraceRecorder::kSchedTrack, "exec_wake",
                         "live_sched", TraceArgInt("rung", rung ? 1 : 0));
    }
  }
}

void LiveScheduler::RequestMove(const Decision& decision) {
  decisions_.push_back(decision);
  Worker* from = workers_[decision.from].get();
  {
    std::lock_guard<std::mutex> lock(from->mu);
    from->moves.push_back(
        Move{executors_[decision.engine], decision.engine, decision.to});
    from->commands_pending.store(true, std::memory_order_release);
  }
  from->doorbell.Ring();
}

void LiveScheduler::ControlLoop() {
  const bool rebalance =
      options_.mode == SchedulingMode::kCompactingEngines &&
      workers_.size() > 1;
  int64_t tick_ns = options_.rebalance_interval_ns;
  if (!profile_path_.empty() && profile_interval_ms_ > 0) {
    tick_ns = std::min(tick_ns, int64_t{profile_interval_ms_} * 1'000'000);
  }
  int64_t next_profile =
      MonotonicTimeNs() + int64_t{profile_interval_ms_} * 1'000'000;
  while (!stop_.load(std::memory_order_relaxed)) {
    control_doorbell_.Consume();
    control_doorbell_.WaitFor(tick_ns);
    if (stop_.load(std::memory_order_relaxed)) {
      break;
    }
    // Only the newest move can differ from placement_: none is issued
    // before the previous one lands (its destination publishes owner_).
    const bool settled =
        decisions_.empty() ||
        owner_[decisions_.back().engine]->load(std::memory_order_acquire) ==
            decisions_.back().to;
    if (rebalance && settled) {
      std::optional<Decision> decision =
          policy_.Decide(placement_, [this](int e) {
            return executors_[e]->queue_delay_ns();
          });
      if (decision) {
        RequestMove(*decision);
      }
    }
    if (!profile_path_.empty() && profile_interval_ms_ > 0 &&
        MonotonicTimeNs() >= next_profile) {
      next_profile = MonotonicTimeNs() +
                     int64_t{profile_interval_ms_} * 1'000'000;
      const std::string tmp = profile_path_ + ".tmp";
      {
        std::ofstream out(tmp);
        out << ProfileJson() << "\n";
      }
      std::rename(tmp.c_str(), profile_path_.c_str());
    }
  }
}

std::string LiveScheduler::ProfileJson() const {
  const int n = static_cast<int>(executors_.size());
  const int num_workers = static_cast<int>(workers_.size());
  std::string json = "{";
  json += "\"enabled\":true";
  json += ",\"mode\":\"";
  json += SchedulingModeName(options_.mode);
  json += "\"";
  json += ",\"num_workers\":" + std::to_string(num_workers);
  json += ",\"num_executors\":" + std::to_string(n);
  json += ",\"slo_ns\":" + std::to_string(options_.compacting_slo_ns);
  json += ",\"migrations\":" +
          std::to_string(migrations_.load(std::memory_order_relaxed));
  json += ",\"workers\":[";
  for (int w = 0; w < num_workers; ++w) {
    const Worker& worker = *workers_[static_cast<size_t>(w)];
    if (w > 0) {
      json += ",";
    }
    json += "{\"busy_ns\":" +
            std::to_string(worker.busy_ns.load(std::memory_order_relaxed));
    json += ",\"park_ns\":" +
            std::to_string(worker.park_ns.load(std::memory_order_relaxed));
    json += ",\"passes\":" +
            std::to_string(worker.passes.load(std::memory_order_relaxed));
    json += ",\"parks\":" +
            std::to_string(worker.parks.load(std::memory_order_relaxed));
    json += ",\"work_items\":" +
            std::to_string(
                worker.work_items.load(std::memory_order_relaxed));
    json += ",\"executors\":[";
    bool first = true;
    for (int e = 0; e < n; ++e) {
      if (owner_[static_cast<size_t>(e)]->load(std::memory_order_relaxed) !=
          w) {
        continue;
      }
      if (!first) {
        json += ",";
      }
      first = false;
      json += std::to_string(e);
    }
    json += "]}";
  }
  json += "],\"executors\":[";
  for (int e = 0; e < n; ++e) {
    const LiveExecutor* exec = executors_[static_cast<size_t>(e)];
    if (e > 0) {
      json += ",";
    }
    json += "{\"worker\":" +
            std::to_string(owner_[static_cast<size_t>(e)]->load(
                std::memory_order_relaxed));
    json += ",\"busy_ns\":" + std::to_string(exec->busy_ns());
    json += ",\"queue_delay_ns\":" + std::to_string(exec->queue_delay_ns());
    json += ",\"wakes\":" + std::to_string(exec->GetStats().wakes);
    json += "}";
  }
  json += "]}";
  return json;
}

LiveScheduler::WorkerStats LiveScheduler::GetWorkerStats(int worker) const {
  const Worker& w = *workers_[static_cast<size_t>(worker)];
  WorkerStats s;
  s.passes = w.passes.load(std::memory_order_relaxed);
  s.work_items = w.work_items.load(std::memory_order_relaxed);
  s.busy_ns = w.busy_ns.load(std::memory_order_relaxed);
  s.park_ns = w.park_ns.load(std::memory_order_relaxed);
  s.parks = w.parks.load(std::memory_order_relaxed);
  s.migrations_in = w.migrations_in.load(std::memory_order_relaxed);
  for (const auto& p : w.passes_by_exec) {
    s.passes_by_exec.push_back(p->load(std::memory_order_relaxed));
  }
  return s;
}

std::vector<const TraceRecorder*> LiveScheduler::WorkerTracers() const {
  std::vector<const TraceRecorder*> tracers;
  for (const auto& worker : workers_) {
    if (worker->tracer != nullptr) {
      tracers.push_back(worker->tracer.get());
    }
  }
  return tracers;
}

}  // namespace snap
