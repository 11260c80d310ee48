#include "src/live/live_executor.h"

#include <algorithm>
#include <chrono>

#include "src/util/logging.h"

namespace snap {

int64_t MonotonicTimeNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LiveExecutor::LiveExecutor(uint64_t seed, int64_t epoch_ns, Options options)
    : Substrate(seed), options_(std::move(options)), epoch_ns_(epoch_ns) {
  set_now(MonotonicTimeNs() - epoch_ns_);
}

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

void LiveExecutor::Wake() {
  wakes_.fetch_add(1, std::memory_order_relaxed);
  wake_target_.load(std::memory_order_acquire)->Ring();
}

void LiveExecutor::SetWakeTarget(Doorbell* target) {
  wake_target_.store(target != nullptr ? target : &doorbell_,
                     std::memory_order_release);
}

void LiveExecutor::MarkRunning(bool running) {
  running_.store(running, std::memory_order_release);
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

LiveExecutor::Stats LiveExecutor::GetStats() const {
  Stats s;
  s.loop_iterations = loop_iterations_.load(std::memory_order_relaxed);
  s.work_items = work_items_.load(std::memory_order_relaxed);
  s.timer_fires = timer_fires_.load(std::memory_order_relaxed);
  s.wakes = wakes_.load(std::memory_order_relaxed);
  s.busy_ns = busy_ns_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace snap
