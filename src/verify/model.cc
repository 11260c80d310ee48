#include "src/verify/model.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "src/util/logging.h"

namespace snap {
namespace verify {

namespace {
thread_local Runtime* tls_runtime = nullptr;
}  // namespace

Runtime* Current() { return tls_runtime; }

// --- free-function facade -------------------------------------------------

Result Explore(const Options& opts, const std::function<void()>& body) {
  Runtime rt(opts);
  return rt.Run(body);
}

Result Explore(const std::function<void()>& body) {
  return Explore(Options{}, body);
}

void Spawn(std::function<void()> fn) {
  SNAP_CHECK(Current() != nullptr)
      << "verify::Spawn called outside verify::Explore";
  Current()->DoSpawn(std::move(fn));
}

void JoinAll() {
  SNAP_CHECK(Current() != nullptr)
      << "verify::JoinAll called outside verify::Explore";
  Current()->DoJoinAll();
}

void Yield() {
  SNAP_CHECK(Current() != nullptr)
      << "verify::Yield called outside verify::Explore";
  Current()->SchedulePoint(/*yield=*/true);
}

void ModelAssert(bool cond, const std::string& msg) {
  SNAP_CHECK(Current() != nullptr)
      << "verify::ModelAssert called outside verify::Explore";
  Current()->DoAssert(cond, msg);
}

// --- Runtime: exploration driver ------------------------------------------

Runtime::Runtime(const Options& opts) : opts_(opts) {}

void Runtime::WakeAll() {
  for (auto& cv : cv_) cv.notify_all();
}

Runtime::~Runtime() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    shutdown_ = true;
    WakeAll();
  }
  for (Worker& w : workers_) {
    if (w.os.joinable()) w.os.join();
  }
}

Result Runtime::Run(const std::function<void()>& body) {
  Result result;
  if (!opts_.replay.empty()) {
    ParseReplay(opts_.replay);
    replay_mode_ = true;
    events_enabled_ = true;
    RunOneSchedule(body);
    result.schedules = 1;
    result.exhausted = false;
    result.ok = !violated_;
    result.trace = violation_trace_;
    result.message = violation_message_;
    return result;
  }
  for (;;) {
    ++result.schedules;
    RunOneSchedule(body);
    if (violated_) {
      // Re-run the violating schedule (the DFS stack still encodes it)
      // with event logging enabled so the report shows what happened.
      const std::string trace = violation_trace_;
      const std::string message = violation_message_;
      violated_ = false;
      violation_message_.clear();
      events_enabled_ = true;
      RunOneSchedule(body);
      events_enabled_ = false;
      result.ok = false;
      if (violated_ && violation_trace_ == trace) {
        result.trace = violation_trace_;
        result.message = violation_message_;
      } else {
        // Should not happen (schedules are deterministic); fall back to
        // the original eventless report.
        result.trace = trace;
        result.message = message;
        violated_ = true;
      }
      return result;
    }
    if (result.schedules >= opts_.max_schedules) {
      result.ok = true;
      result.exhausted = false;
      return result;
    }
    if (!NextSchedule()) {
      result.ok = true;
      result.exhausted = true;
      return result;
    }
  }
}

void Runtime::ResetExecutionState() {
  threads_.clear();
  threads_.reserve(kMaxThreads);
  threads_.emplace_back();  // virtual thread 0 = the body
  active_ = 0;
  abort_ = false;
  steps_ = 0;
  preemptions_used_ = 0;
  store_seq_ = 0;
  next_loc_id_ = 0;
  events_.clear();
  stack_pos_ = 0;
}

void Runtime::RunOneSchedule(const std::function<void()>& body) {
  ResetExecutionState();
  tls_runtime = this;
  try {
    body();
  } catch (const BugFound&) {
    // Violation already recorded; fall through to release the others.
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    bool all_done = true;
    for (size_t i = 1; i < threads_.size(); ++i) {
      if (!threads_[i].finished) all_done = false;
    }
    if (!all_done && !violated_) {
      violated_ = true;
      violation_trace_ = TraceString();
      violation_message_ =
          "exploration body returned while spawned virtual threads were "
          "still live; call verify::JoinAll() before the body's locals are "
          "destroyed";
    }
    abort_ = true;
    WakeAll();
    // Wait for every worker to park (finished + back in its wait loop)
    // before the body's locals are torn down or the next schedule starts.
    cv_[0].wait(lk, [&] {
      for (size_t i = 1; i < threads_.size(); ++i) {
        if (!threads_[i].finished) return false;
      }
      return true;
    });
  }
  tls_runtime = nullptr;
}

// --- DFS choice stack -----------------------------------------------------

int Runtime::Choose(int n) {
  if (n <= 1) return 0;
  if (stack_pos_ < stack_.size()) {
    const Choice& c = stack_[stack_pos_++];
    return std::min(c.chosen, n - 1);
  }
  stack_.push_back(Choice{0, n});
  stack_pos_ = stack_.size();
  return 0;
}

int Runtime::ChooseAlternative(int n) { return Choose(n); }

bool Runtime::NextSchedule() {
  while (!stack_.empty()) {
    Choice& top = stack_.back();
    if (top.chosen + 1 < top.num) {
      ++top.chosen;
      return true;
    }
    stack_.pop_back();
  }
  return false;
}

std::string Runtime::TraceString() const {
  std::ostringstream os;
  for (size_t i = 0; i < stack_pos_ && i < stack_.size(); ++i) {
    if (i > 0) os << '.';
    os << stack_[i].chosen;
  }
  return os.str();
}

void Runtime::ParseReplay(const std::string& trace) {
  stack_.clear();
  std::istringstream is(trace);
  std::string tok;
  while (std::getline(is, tok, '.')) {
    if (tok.empty()) continue;
    stack_.push_back(Choice{std::atoi(tok.c_str()), 1 << 30});
  }
}

// --- scheduling ------------------------------------------------------------

uint32_t Runtime::Tick() {
  VectorClock& clk = threads_[active_].clock;
  return ++clk.c[active_];
}

std::string Runtime::RegisterLocation(char kind) {
  return std::string(1, kind) + std::to_string(next_loc_id_++);
}

void Runtime::LogEvent(std::string ev) {
  if (!events_enabled_) return;
  if (events_.size() >= 8192) {
    events_.erase(events_.begin(), events_.begin() + 4096);
  }
  events_.push_back(std::move(ev));
}

int Runtime::PickNext(bool current_runnable, bool voluntary) {
  const int me = active_;
  auto runnable = [&](int t) {
    const ThreadState& ts = threads_[t];
    return !ts.finished && !ts.blocked_join;
  };
  std::vector<int> all;
  for (int t = 0; t < static_cast<int>(threads_.size()); ++t) {
    if (!runnable(t)) continue;
    if (t == me && !current_runnable) continue;
    all.push_back(t);
  }
  if (all.empty()) return -1;
  bool have_fresh = false;
  for (int t : all) {
    if (!threads_[t].yielded) have_fresh = true;
  }
  std::vector<int> cands;
  // Current-thread-first ordering: DFS explores "keep running" before any
  // context switch, so the simplest schedules come first.
  if (current_runnable &&
      (!threads_[me].yielded || !have_fresh)) {
    cands.push_back(me);
  }
  for (int t : all) {
    if (t == me) continue;
    if (threads_[t].yielded && have_fresh) continue;
    cands.push_back(t);
  }
  if (cands.empty()) {
    // Everyone else is deprioritized and the current thread yielded: let
    // the yielded set compete.
    cands = all;
  }
  if (cands.size() == 1) return cands[0];
  // Iterative context bounding: once the budget is spent, an involuntary
  // switch away from a runnable thread is no longer offered.
  if (current_runnable && !voluntary &&
      preemptions_used_ >= opts_.max_preemptions) {
    return me;
  }
  int next = cands[Choose(static_cast<int>(cands.size()))];
  if (current_runnable && !voluntary && next != me) {
    ++preemptions_used_;
  }
  return next;
}

void Runtime::SwitchTo(int next, std::unique_lock<std::mutex>& lk) {
  const int me = active_;
  active_ = next;
  threads_[next].yielded = false;
  cv_[next].notify_one();
  cv_[me].wait(lk, [&] { return active_ == me || abort_; });
  if (abort_) throw BugFound{};
  threads_[me].yielded = false;
}

void Runtime::SchedulePoint(bool yield) {
  std::unique_lock<std::mutex> lk(mu_);
  if (abort_) throw BugFound{};
  if (++steps_ > opts_.max_steps_per_schedule) {
    lk.unlock();
    ReportViolation(
        "step budget exceeded",
        "a schedule ran past max_steps_per_schedule; this usually means an "
        "unbounded spin loop (use bounded retries with verify::Yield)");
  }
  const int me = active_;
  if (yield) threads_[me].yielded = true;
  int next = PickNext(/*current_runnable=*/true, /*voluntary=*/yield);
  SNAP_CHECK_GE(next, 0);
  if (next != me) {
    SwitchTo(next, lk);
  } else {
    threads_[me].yielded = false;
  }
}

void Runtime::DoSpawn(std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    int id = static_cast<int>(threads_.size());
    if (id >= kMaxThreads) {
      lk.unlock();
      ReportViolation("too many threads",
                      "verify supports at most " +
                          std::to_string(kMaxThreads - 1) +
                          " spawned virtual threads");
    }
    threads_.emplace_back();
    threads_.back().clock = threads_[active_].clock;  // fork h-b edge
    Worker& w = workers_[id];
    w.fn = std::move(fn);
    w.has_work = true;
    if (!w.os.joinable()) {
      w.os = std::thread(&Runtime::WorkerMain, this, id);
    }
    // No wake needed: the worker only runs once a handoff makes it active,
    // and SwitchTo/FinishThread notify its condvar then.
  }
  // The new thread is runnable: branch over whether it runs right away.
  SchedulePoint();
}

void Runtime::WorkerMain(int id) {
  tls_runtime = this;
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_[id].wait(lk, [&] {
        return shutdown_ ||
               (workers_[id].has_work && (active_ == id || abort_));
      });
      if (shutdown_) return;
      workers_[id].has_work = false;
      if (abort_) {
        threads_[id].finished = true;
        cv_[0].notify_one();  // RunOneSchedule waits for all-parked
        continue;
      }
      fn = std::move(workers_[id].fn);
    }
    try {
      fn();
    } catch (const BugFound&) {
      // Recorded (or triggered) elsewhere; just unwind this thread.
    }
    // Destroy the closure before parking so capture destructors never run
    // concurrently with the next schedule.
    fn = nullptr;
    FinishThread(id);
  }
}

void Runtime::FinishThread(int id) {
  std::unique_lock<std::mutex> lk(mu_);
  threads_[id].finished = true;
  if (abort_) {
    cv_[0].notify_one();  // RunOneSchedule waits for all-parked
    return;
  }
  bool all_done = true;
  for (size_t i = 1; i < threads_.size(); ++i) {
    if (!threads_[i].finished) all_done = false;
  }
  if (all_done && threads_[0].blocked_join) {
    threads_[0].blocked_join = false;
  }
  int next = PickNext(/*current_runnable=*/false, /*voluntary=*/false);
  if (next < 0) {
    // Structurally unreachable (the body can only block in JoinAll, which
    // is released above); fail safe instead of hanging.
    if (!violated_) {
      violated_ = true;
      violation_trace_ = TraceString();
      violation_message_ = "deadlock: no runnable virtual thread";
    }
    abort_ = true;
    WakeAll();
    return;
  }
  active_ = next;
  threads_[next].yielded = false;
  cv_[next].notify_one();
}

void Runtime::DoJoinAll() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (abort_) throw BugFound{};
    bool all_done = true;
    for (size_t i = 1; i < threads_.size(); ++i) {
      if (!threads_[i].finished) all_done = false;
    }
    if (all_done) break;
    threads_[0].blocked_join = true;
    int next = PickNext(/*current_runnable=*/false, /*voluntary=*/false);
    SNAP_CHECK_GE(next, 0);
    SwitchTo(next, lk);
  }
  threads_[0].blocked_join = false;
  // Join happens-before edge from every finished child.
  for (size_t i = 1; i < threads_.size(); ++i) {
    threads_[0].clock.Join(threads_[i].clock);
  }
}

void Runtime::DoAssert(bool cond, const std::string& msg) {
  if (cond) return;
  ReportViolation("assertion failed", msg);
}

bool Runtime::aborting() {
  std::unique_lock<std::mutex> lk(mu_);
  return abort_;
}

void Runtime::ReportViolation(const std::string& kind,
                              const std::string& detail) {
  std::ostringstream os;
  os << kind << ": " << detail << "\n  schedule: \"" << TraceString()
     << "\" (replay via verify::Options::replay)\n  last events:";
  size_t start = events_.size() > 40 ? events_.size() - 40 : 0;
  for (size_t i = start; i < events_.size(); ++i) {
    os << "\n    " << events_[i];
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (!violated_) {
      violated_ = true;
      violation_trace_ = TraceString();
      violation_message_ = os.str();
    }
    abort_ = true;
    WakeAll();
  }
  throw BugFound{};
}

}  // namespace verify
}  // namespace snap
