#include "src/live/live_executor.h"

#include <algorithm>
#include <chrono>

#include "src/stats/trace.h"
#include "src/util/logging.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace snap {

int64_t MonotonicTimeNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void PinThreadToCore(int core) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  // Best-effort: a container may expose fewer cores than requested; the
  // thread still runs correctly unpinned.
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)core;
#endif
}

LiveExecutor::LiveExecutor(uint64_t seed, int64_t epoch_ns, Options options)
    : Substrate(seed), options_(std::move(options)), epoch_ns_(epoch_ns) {
  set_now(MonotonicTimeNs() - epoch_ns_);
}

LiveExecutor::~LiveExecutor() { Stop(); }

void LiveExecutor::AddEngine(Engine* engine) {
  SNAP_CHECK(!running()) << "AddEngine after Start";
  engines_.push_back(engine);
  engine->SetWakeHook([this] { Wake(); });
}

void LiveExecutor::SetPollHook(std::function<int()> hook) {
  SNAP_CHECK(!running()) << "SetPollHook after Start";
  poll_hook_ = std::move(hook);
}

void LiveExecutor::SetPassEndHook(std::function<void()> hook) {
  SNAP_CHECK(!running()) << "SetPassEndHook after Start";
  pass_end_hook_ = std::move(hook);
}

EventHandle LiveExecutor::ScheduleAt(SimTime when, EventQueue::Callback cb) {
  // Late deadlines are normal on a wall clock; clamp instead of CHECK.
  SimTime at = std::max(when, now());
  return events_.ScheduleAt(at, std::move(cb));
}

void LiveExecutor::Start() {
  SNAP_CHECK(!running()) << "executor already started";
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Run(); });
}

void LiveExecutor::Stop() {
  if (!thread_.joinable()) {
    return;
  }
  stop_.store(true, std::memory_order_seq_cst);
  // Ring both bells: Wake() targets wherever wake_target_ points, which
  // under a scheduler is a worker's doorbell, but the standalone loop
  // parks on doorbell_ specifically.
  Wake();
  doorbell_.Ring();
  thread_.join();
}

void LiveExecutor::Wake() {
  wakes_.fetch_add(1, std::memory_order_relaxed);
  wake_target_.load(std::memory_order_acquire)->Ring();
}

void LiveExecutor::SetWakeTarget(Doorbell* target) {
  wake_target_.store(target != nullptr ? target : &doorbell_,
                     std::memory_order_release);
}

void LiveExecutor::MarkRunning(bool running) {
  externally_running_.store(running, std::memory_order_release);
}

int LiveExecutor::RunDueTimers(SimTime now) {
  int fired = 0;
  SimTime when = 0;
  EventQueue::Callback cb;
  while (!events_.empty() && events_.NextEventTime() <= now) {
    if (!events_.PopNext(&when, &cb)) {
      break;
    }
    // Unlike the simulator, callbacks observe now() == the loop's clock
    // read, which may be later than their deadline (late timers fire on
    // the iteration that discovers them).
    cb();
    ++fired;
  }
  timer_fires_.fetch_add(fired, std::memory_order_relaxed);
  return fired;
}

int64_t LiveExecutor::NextTimerDelayNs() {
  if (events_.empty()) {
    return -1;
  }
  // Fresh clock read: a bound computed from a pass-top "now" would
  // overstate the delay by the duration of the pass and oversleep the
  // deadline (the PR 10 park-bound fix).
  int64_t delay = events_.NextEventTime() - (MonotonicTimeNs() - epoch_ns_);
  return std::max<int64_t>(delay, 0);
}

int LiveExecutor::RunPass() {
  SimTime now = MonotonicTimeNs() - epoch_ns_;
  set_now(now);
  loop_iterations_.fetch_add(1, std::memory_order_relaxed);

  int work = RunDueTimers(now);
  if (poll_hook_) {
    work += poll_hook_();
  }
  SimDuration max_delay = 0;
  for (Engine* engine : engines_) {
    if (engine->RunMailbox() > 0) {
      ++work;
    }
    Engine::PollResult r = engine->Poll(now, options_.poll_budget);
    work += r.work_items;
    max_delay = std::max(max_delay, engine->QueueingDelay(now));
  }
  if (pass_end_hook_) {
    pass_end_hook_();
  }
  queue_delay_ns_.store(max_delay, std::memory_order_relaxed);
  telemetry().MaybeSampleSeries(now);

  if (work > 0) {
    work_items_.fetch_add(work, std::memory_order_relaxed);
    busy_ns_.fetch_add(MonotonicTimeNs() - epoch_ns_ - now,
                       std::memory_order_relaxed);
  }
  return work;
}

void LiveExecutor::Run() {
  if (options_.cpu_affinity >= 0) {
    PinThreadToCore(options_.cpu_affinity);
  }
  SimTime last_work = MonotonicTimeNs() - epoch_ns_;
  while (!stop_.load(std::memory_order_relaxed)) {
    // Consume the doorbell before polling: anything rung after this point
    // triggers another full pass instead of being absorbed by this one.
    doorbell_.Consume();

    int work = RunPass();
    SimTime after = now();
    if (work > 0) {
      last_work = after;
      continue;
    }
    if (after - last_work < options_.spin_before_park) {
      continue;  // busy-poll window: lowest wake latency
    }
    // Park, bounded by the nearest timer (fresh clock) and max_park.
    int64_t bound = options_.max_park;
    int64_t timer_delay = NextTimerDelayNs();
    if (timer_delay >= 0) {
      bound = std::min(bound, timer_delay);
    }
    if (bound <= 0 || doorbell_.pending() ||
        stop_.load(std::memory_order_relaxed)) {
      continue;
    }
    parks_.fetch_add(1, std::memory_order_relaxed);
    if (tracer() != nullptr) {
      tracer()->Instant(now(), TraceRecorder::kSchedTrack, "exec_park",
                        "live_sched", TraceArgInt("bound_ns", bound));
    }
    bool rung = doorbell_.WaitFor(bound);
    if (tracer() != nullptr) {
      tracer()->Instant(MonotonicTimeNs() - epoch_ns_,
                        TraceRecorder::kSchedTrack, "exec_wake", "live_sched",
                        TraceArgInt("rung", rung ? 1 : 0));
    }
  }
}

LiveExecutor::Stats LiveExecutor::GetStats() const {
  Stats s;
  s.loop_iterations = loop_iterations_.load(std::memory_order_relaxed);
  s.work_items = work_items_.load(std::memory_order_relaxed);
  s.timer_fires = timer_fires_.load(std::memory_order_relaxed);
  s.parks = parks_.load(std::memory_order_relaxed);
  s.wakes = wakes_.load(std::memory_order_relaxed);
  s.busy_ns = busy_ns_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace snap
