#include "src/snap/engine_group.h"

#include <algorithm>
#include <cstdint>
#include <deque>

#include "src/util/logging.h"

namespace snap {

namespace {

// Cost of one rebalancer pass (queue-delay estimation reads shared
// variables; decisions message affected threads).
constexpr SimDuration kRebalanceBaseCost = 400 * kNsec;
constexpr SimDuration kRebalancePerEngineCost = 80 * kNsec;

// Records one engine poll pass into its telemetry histogram and (when a
// recorder is attached) as a trace slice. `poll_start` is the reconstructed
// intra-step start time: sim time is frozen during a task step, so passes
// are laid out by accumulated modeled cost to nest under the task slice.
inline void NotePollPass(Substrate* sim, Engine* e, SimTime poll_start,
                         SimDuration cpu_ns) {
  if (cpu_ns <= 0) {
    return;  // idle passes would drown the distribution in zeros
  }
  if (Histogram* h = e->poll_histogram()) {
    h->Record(cpu_ns);
  }
  if (TraceRecorder* tracer = sim->tracer()) {
    tracer->Complete(poll_start, cpu_ns,
                     tracer->current_core_or(TraceRecorder::kSchedTrack),
                     e->name(), "poll");
  }
}

// Polls `engines` round-robin starting at *cursor until budget exhausts or
// nothing makes progress. Shared by all three modes.
Engine::PollResult PollEngines(Substrate* sim, std::vector<Engine*>& engines,
                               size_t* cursor, SimTime now,
                               SimDuration budget) {
  Engine::PollResult total;
  if (engines.empty()) {
    return total;
  }
  size_t n = engines.size();
  size_t idle_streak = 0;
  size_t i = *cursor;
  while (total.cpu_ns < budget && idle_streak < n) {
    Engine* e = engines[i % n];
    SimDuration mailbox_cost = e->RunMailbox();
    total.cpu_ns += mailbox_cost;
    SimTime poll_start = now + total.cpu_ns;
    Engine::PollResult r = e->Poll(now, budget - total.cpu_ns);
    NotePollPass(sim, e, poll_start, r.cpu_ns);
    total.cpu_ns += r.cpu_ns;
    total.work_items += r.work_items;
    if (r.work_items == 0 && mailbox_cost == 0) {
      ++idle_streak;
    } else {
      idle_streak = 0;
    }
    ++i;
  }
  *cursor = i % n;
  return total;
}

// Installs the per-engine poll-duration histogram when the engine joins a
// group ("snap/<engine>/poll_ns").
inline void InstallPollHistogram(Substrate* sim, Engine* engine) {
  engine->set_poll_histogram(
      sim->telemetry().GetHistogram("snap/" + engine->name() + "/poll_ns"));
}

// Installs the per-task scheduling-delay histogram
// ("snap/<task>/sched_delay_ns") measuring wake-to-run latency.
inline void InstallSchedDelayHistogram(Substrate* sim, SimTask* task) {
  task->set_sched_latency_histogram(sim->telemetry().GetHistogram(
      "snap/" + task->name() + "/sched_delay_ns"));
}

// ---------------------------------------------------------------------------
// Dedicating cores (Section 2.4, "Dedicating cores"): engines pinned to
// reserved hyperthreads, spin polling, fair-shared round-robin.
// ---------------------------------------------------------------------------
class DedicatedGroup : public EngineGroup {
 public:
  DedicatedGroup(std::string name, Substrate* sim, CpuScheduler* sched,
                 const Options& options)
      : name_(std::move(name)), sim_(sim), sched_(sched) {
    SNAP_CHECK(!options.dedicated_cores.empty())
        << "dedicated mode requires reserved cores";
    for (int core : options.dedicated_cores) {
      auto task = std::make_unique<CoreTask>(
          name_ + "/core" + std::to_string(core), sim_);
      sched_->AddTask(task.get());
      InstallSchedDelayHistogram(sim_, task.get());
      sched_->ReserveCore(task.get(), core);
      sched_->Wake(task.get(), /*remote=*/false);
      tasks_.push_back(std::move(task));
    }
  }

  void AddEngine(Engine* engine) override {
    // Assign to the least-loaded core task.
    CoreTask* best = tasks_.front().get();
    for (auto& t : tasks_) {
      if (t->engines.size() < best->engines.size()) {
        best = t.get();
      }
    }
    best->engines.push_back(engine);
    InstallPollHistogram(sim_, engine);
    CoreTask* task = best;
    CpuScheduler* sched = sched_;
    engine->SetWakeHook([sched, task] { sched->Wake(task, false); });
    // An adopted engine may arrive with pending work (upgrade restore
    // queues retransmissions); make sure it gets polled.
    sched_->Wake(task, /*remote=*/false);
  }

  void RemoveEngine(Engine* engine) override {
    for (auto& t : tasks_) {
      auto& v = t->engines;
      v.erase(std::remove(v.begin(), v.end(), engine), v.end());
    }
    engine->SetWakeHook(nullptr);
  }

  const std::string& name() const override { return name_; }

  int64_t CpuNs() const override {
    const_cast<CpuScheduler*>(sched_)->FlushSpinAccounting();
    int64_t total = 0;
    for (const auto& t : tasks_) {
      total += t->cpu_consumed_ns();
    }
    return total;
  }

 private:
  class CoreTask : public SimTask {
   public:
    CoreTask(std::string name, Substrate* sim)
        : SimTask(std::move(name), SchedClass::kDedicated), sim_(sim) {
      set_container("snap");
    }

    StepResult Step(SimTime now, SimDuration budget_ns) override {
      Engine::PollResult r =
          PollEngines(sim_, engines, &cursor_, now, budget_ns);
      StepResult out;
      out.cpu_ns = r.cpu_ns;
      out.next = (r.work_items > 0) ? StepResult::Next::kYield
                                    : StepResult::Next::kSpin;
      return out;
    }

    std::vector<Engine*> engines;

   private:
    Substrate* sim_;
    size_t cursor_ = 0;
  };

  std::string name_;
  Substrate* sim_;
  CpuScheduler* sched_;
  std::vector<std::unique_ptr<CoreTask>> tasks_;
};

// ---------------------------------------------------------------------------
// Spreading engines: one MicroQuanta thread per engine; blocks on
// notification when idle, schedules with priority to an available core.
// ---------------------------------------------------------------------------
class SpreadingGroup : public EngineGroup {
 public:
  SpreadingGroup(std::string name, Substrate* sim, CpuScheduler* sched,
                 const Options& options)
      : name_(std::move(name)),
        sim_(sim),
        sched_(sched),
        options_(options) {}

  void AddEngine(Engine* engine) override {
    auto task = std::make_unique<EngineTask>(
        name_ + "/" + engine->name(), sim_, engine,
        options_.spreading_use_cfs ? SchedClass::kCfs
                                   : SchedClass::kMicroQuanta,
        options_.spreading_cfs_weight);
    sched_->AddTask(task.get());
    InstallPollHistogram(sim_, engine);
    // Spreading wakes pay a scheduling delay per wake (Fig. 6(d)'s tail
    // driver); record it under the engine's own name.
    task->set_sched_latency_histogram(sim_->telemetry().GetHistogram(
        "snap/" + engine->name() + "/sched_delay_ns"));
    if (!options_.spreading_use_cfs) {
      sched_->SetMicroQuantaBandwidth(task.get(), options_.mq_runtime,
                                      options_.mq_period);
    }
    EngineTask* raw = task.get();
    CpuScheduler* sched = sched_;
    engine->SetWakeHook([sched, raw] { sched->Wake(raw, /*remote=*/true); });
    tasks_.push_back(std::move(task));
    // Poll once immediately: adopted engines may carry pending work.
    sched_->Wake(raw, /*remote=*/false);
  }

  void RemoveEngine(Engine* engine) override {
    for (auto& t : tasks_) {
      if (t->engine() == engine) {
        t->Retire();
      }
    }
    engine->SetWakeHook(nullptr);
  }

  const std::string& name() const override { return name_; }

  int64_t CpuNs() const override {
    int64_t total = 0;
    for (const auto& t : tasks_) {
      total += t->cpu_consumed_ns();
    }
    return total;
  }

 private:
  class EngineTask : public SimTask {
   public:
    EngineTask(std::string name, Substrate* sim, Engine* engine,
               SchedClass sched_class, double weight)
        : SimTask(std::move(name), sched_class, weight),
          sim_(sim),
          engine_(engine) {
      set_container("snap");
    }

    Engine* engine() const { return engine_; }
    void Retire() { retired_ = true; }

    StepResult Step(SimTime now, SimDuration budget_ns) override {
      StepResult out;
      if (retired_) {
        out.next = StepResult::Next::kBlock;
        return out;
      }
      out.cpu_ns += engine_->RunMailbox();
      SimTime poll_start = now + out.cpu_ns;
      Engine::PollResult r = engine_->Poll(now, budget_ns - out.cpu_ns);
      NotePollPass(sim_, engine_, poll_start, r.cpu_ns);
      out.cpu_ns += r.cpu_ns;
      if (r.work_items > 0 || engine_->HasWork(now)) {
        out.next = StepResult::Next::kYield;
        // A zero-cost yield would livelock the scheduler; charge the poll.
        if (out.cpu_ns == 0) {
          out.cpu_ns = 50 * kNsec;
        }
      } else {
        out.next = StepResult::Next::kBlock;
      }
      return out;
    }

   private:
    Substrate* sim_;
    Engine* engine_;
    bool retired_ = false;
  };

  std::string name_;
  Substrate* sim_;
  CpuScheduler* sched_;
  Options options_;
  std::vector<std::unique_ptr<EngineTask>> tasks_;
};

// ---------------------------------------------------------------------------
// Compacting engines: engines multiplexed onto as few threads as possible;
// a rebalancer (run from the primary worker) polls engine queueing delays
// against an SLO and scales out / compacts one engine per round under the
// CompactingPolicy it shares with the live scheduler (Section 2.4).
// ---------------------------------------------------------------------------
class CompactingGroup : public EngineGroup {
 public:
  CompactingGroup(std::string name, Substrate* sim, CpuScheduler* sched,
                  const Options& options)
      : name_(std::move(name)),
        sim_(sim),
        sched_(sched),
        options_(options),
        policy_(options.compacting_slo) {
    SNAP_CHECK_GT(options.max_workers, 0);
    placement_.resize(static_cast<size_t>(options.max_workers));
    for (int i = 0; i < options.max_workers; ++i) {
      auto w = std::make_unique<Worker>(
          name_ + "/worker" + std::to_string(i), this, i);
      sched_->AddTask(w.get());
      InstallSchedDelayHistogram(sim_, w.get());
      sched_->SetMicroQuantaBandwidth(w.get(), options_.mq_runtime,
                                      options_.mq_period);
      workers_.push_back(std::move(w));
    }
    // The primary spin-polls by default.
    sched_->Wake(workers_.front().get(), /*remote=*/false);
  }

  void AddEngine(Engine* engine) override {
    placement_.front().push_back(engine);
    InstallPollHistogram(sim_, engine);
    CompactingGroup* group = this;
    engine->SetWakeHook([group, engine] { group->OnEngineWork(engine); });
    sched_->Wake(workers_.front().get(), /*remote=*/false);
  }

  void RemoveEngine(Engine* engine) override {
    for (auto& v : placement_) {
      v.erase(std::remove(v.begin(), v.end(), engine), v.end());
    }
    engine->SetWakeHook(nullptr);
  }

  const std::string& name() const override { return name_; }

  int64_t CpuNs() const override {
    const_cast<CpuScheduler*>(sched_)->FlushSpinAccounting();
    int64_t total = 0;
    for (const auto& w : workers_) {
      total += w->cpu_consumed_ns();
    }
    return total;
  }

  int active_workers() const {
    int n = 0;
    for (const auto& engines : placement_) {
      if (!engines.empty()) {
        ++n;
      }
    }
    return n;
  }

 private:
  class Worker : public SimTask {
   public:
    Worker(std::string name, CompactingGroup* group, int index)
        : SimTask(std::move(name), SchedClass::kMicroQuanta),
          group_(group),
          index_(index) {
      set_container("snap");
    }

    StepResult Step(SimTime now, SimDuration budget_ns) override {
      StepResult out;
      std::vector<Engine*>& engines = group_->placement_[index_];
      Engine::PollResult r =
          PollEngines(group_->sim_, engines, &cursor_, now, budget_ns);
      out.cpu_ns = r.cpu_ns;
      // The primary interleaves rebalancing with engine execution.
      if (index_ == 0 && now >= next_rebalance_) {
        out.cpu_ns += group_->Rebalance(now);
        next_rebalance_ = now + group_->options_.rebalance_interval;
      }
      if (r.work_items > 0) {
        last_work_ = now;
        out.next = StepResult::Next::kYield;
        return out;
      }
      // Idle: the primary spins (its most-compacted state, Section 5.3);
      // secondaries spin briefly, then block to scale down.
      bool keep_spinning =
          index_ == 0 ||
          (!engines.empty() &&
           now - last_work_ < group_->options_.idle_block_after);
      out.next = keep_spinning ? StepResult::Next::kSpin
                               : StepResult::Next::kBlock;
      return out;
    }

   private:
    CompactingGroup* group_;
    int index_;
    size_t cursor_ = 0;
    SimTime next_rebalance_ = 0;
    SimTime last_work_ = 0;
  };

  void OnEngineWork(Engine* engine) {
    for (size_t w = 0; w < placement_.size(); ++w) {
      const auto& v = placement_[w];
      if (std::find(v.begin(), v.end(), engine) != v.end()) {
        sched_->Wake(workers_[w].get(), /*remote=*/true);
        return;
      }
    }
  }

  // One rebalancer pass; returns its modeled CPU cost. A move publishes a
  // telemetry counter, a trace instant and the evolving active-worker
  // count as a trace counter series.
  SimDuration Rebalance(SimTime now) {
    size_t num_engines = 0;
    for (const auto& v : placement_) {
      num_engines += v.size();
    }
    SimDuration cost = kRebalanceBaseCost +
                       kRebalancePerEngineCost *
                           static_cast<SimDuration>(num_engines);
    std::optional<CompactingPolicy<Engine*>::Move> move = policy_.Decide(
        placement_, [now](Engine* e) { return e->QueueingDelay(now); });
    if (!move) {
      return cost;
    }
    const bool scale_out =
        move->kind == CompactingPolicy<Engine*>::Move::kScaleOut;
    const char* kind = scale_out ? "scale_out" : "compaction";
    sim_->telemetry()
        .GetCounter("snap/" + name_ + "/rebalance/" + kind + "s")
        ->Increment();
    if (TraceRecorder* tracer = sim_->tracer()) {
      tracer->Instant(now, TraceRecorder::kSchedTrack,
                      std::string("rebalance_") + kind + ":" +
                          move->engine->name(),
                      "sched");
      tracer->CounterValue(now, name_ + "/active_workers", active_workers());
    }
    if (scale_out) {
      sched_->Wake(workers_[move->to].get(), /*remote=*/true);
    }
    return cost;
  }

  std::string name_;
  Substrate* sim_;
  CpuScheduler* sched_;
  Options options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // placement_[w]: engines on worker w, oldest arrival first.
  std::vector<std::vector<Engine*>> placement_;
  CompactingPolicy<Engine*> policy_;
};

}  // namespace

std::unique_ptr<EngineGroup> EngineGroup::Create(std::string name,
                                                 Substrate* sim,
                                                 CpuScheduler* sched,
                                                 const Options& options) {
  switch (options.mode) {
    case SchedulingMode::kDedicatedCores:
      return std::make_unique<DedicatedGroup>(std::move(name), sim, sched,
                                              options);
    case SchedulingMode::kSpreadingEngines:
      return std::make_unique<SpreadingGroup>(std::move(name), sim, sched,
                                              options);
    case SchedulingMode::kCompactingEngines:
      return std::make_unique<CompactingGroup>(std::move(name), sim, sched,
                                               options);
  }
  return nullptr;
}

}  // namespace snap
