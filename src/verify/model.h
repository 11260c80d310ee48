// Deterministic schedule-exploration harness ("loom-style" model checker)
// for Snap's lock-free queues.
//
// The checker runs a test body many times. Each run executes the body's
// virtual threads *one at a time* under a strict cooperative handoff, with
// a scheduling point before every instrumented atomic operation. At each
// point where more than one continuation is possible — which runnable
// thread executes next, or which store an atomic load is allowed to
// observe under the C++11 memory model — the runtime consults a DFS
// choice stack. After each run it backtracks to the deepest choice point
// with an unexplored alternative, so the full (bounded) interleaving tree
// is enumerated exactly once.
//
// Two bounds keep the tree tractable:
//   - max_preemptions: schedules may contain at most N involuntary
//     context switches (switching away from a runnable thread). This is
//     classic iterative context bounding: almost all real concurrency
//     bugs manifest with <= 2 preemptions.
//   - max_schedules / max_steps_per_schedule: hard safety caps.
//
// Weak memory is modeled operationally: every ModelAtomic location keeps
// the history of stores made to it (a generalized per-thread store
// buffer), and a load may observe *any* store that coherence and
// happens-before (tracked with vector clocks) do not forbid — so the
// checker manufactures the stale reads and reorderings that on real
// hardware only appear under rare timing on weakly-ordered machines.
// Acquire loads that observe release stores join the releaser's vector
// clock, and ModelCell data accesses are race-checked against those
// clocks: a missing release/acquire edge surfaces deterministically as a
// reported data race with a replayable schedule.
//
// Usage:
//   verify::Options opts;
//   verify::Result r = verify::Explore(opts, [] {
//     SpscRing<int, verify::ModelAtomics> ring(2);
//     verify::Spawn([&] { ring.TryPush(1); });
//     verify::Spawn([&] { ring.TryPop(); });
//     verify::JoinAll();   // required before the body's locals die
//   });
//   ASSERT_TRUE(r.ok) << r.message;  // r.trace replays the failure
#ifndef SRC_VERIFY_MODEL_H_
#define SRC_VERIFY_MODEL_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace snap {
namespace verify {

// Maximum virtual threads per exploration (body + spawned).
inline constexpr int kMaxThreads = 8;

// Vector clock over virtual-thread ids.
struct VectorClock {
  std::array<uint32_t, kMaxThreads> c{};

  void Join(const VectorClock& o) {
    for (int i = 0; i < kMaxThreads; ++i) {
      if (o.c[i] > c[i]) c[i] = o.c[i];
    }
  }
  // True if the event (thread, tick) is visible to (happens-before) a
  // thread holding this clock.
  bool Covers(int thread, uint32_t tick) const { return c[thread] >= tick; }
};

struct Options {
  // Involuntary context switches allowed per schedule (0 = cooperative
  // schedules only). 2 is the classic sweet spot.
  int max_preemptions = 2;
  // Safety caps; exploration reports exhausted=false when one is hit.
  long max_schedules = 2'000'000;
  long max_steps_per_schedule = 100'000;
  // When non-empty, run exactly one schedule: the given Result::trace
  // string from a previous run (counterexample replay).
  std::string replay;
};

struct Result {
  bool ok = true;
  // True when every schedule within the preemption bound was explored.
  bool exhausted = false;
  long schedules = 0;  // executions run
  // On violation: replayable schedule string (feed to Options::replay).
  std::string trace;
  // On violation: human-readable report (kind, location, event log tail).
  std::string message;
};

// Explore all interleavings of `body` within bounds. The body runs once
// per schedule on the calling thread (virtual thread 0); it may call
// Spawn/JoinAll/Yield/ModelAssert and must JoinAll before returning.
Result Explore(const Options& opts, const std::function<void()>& body);
Result Explore(const std::function<void()>& body);

// --- callable from inside an exploration body ----------------------------

// Start a virtual thread. It inherits the spawner's vector clock (the
// fork happens-before edge).
void Spawn(std::function<void()> fn);

// Block virtual thread 0 until all spawned threads finish, then join
// their clocks (the join happens-before edge).
void JoinAll();

// Voluntary scheduling point: deprioritizes the calling thread until
// another runnable thread has run (so bounded spin loops make progress
// without burning the preemption budget).
void Yield();

// Record a violation (with the current schedule trace) if !cond.
void ModelAssert(bool cond, const std::string& msg);

// Thrown to unwind virtual threads when a violation aborts a schedule.
// Caught internally; test bodies should not catch it.
struct BugFound {};

class Runtime;
// The runtime driving the current exploration (null outside Explore).
Runtime* Current();

// --- internals shared with ModelAtomic / ModelCell -----------------------

class Runtime {
 public:
  explicit Runtime(const Options& opts);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // One full exploration (the implementation behind verify::Explore).
  Result Run(const std::function<void()>& body);

  // Scheduling point: may hand execution to a different virtual thread.
  // With yield=true the current thread is deprioritized and the switch is
  // free (no preemption charged).
  void SchedulePoint(bool yield = false);

  // Branch over `n` possible outcomes that are not thread choices (e.g.
  // which store a weak load observes). Returns the index to take.
  int ChooseAlternative(int n);

  // Record a violation and abort the current schedule (throws BugFound).
  [[noreturn]] void ReportViolation(const std::string& kind,
                                    const std::string& detail);

  // True once a violation has aborted the current schedule and its
  // threads are unwinding.
  bool aborting();

  // Current virtual thread id / clock; Tick() advances the thread's own
  // clock component and returns the new tick (an event timestamp).
  int current_thread() const { return active_; }
  VectorClock& clock(int thread) { return threads_[thread].clock; }
  VectorClock& CurrentClock() { return threads_[active_].clock; }
  uint32_t Tick();

  // Monotonic id for stores (coherence / modification order).
  uint64_t NextStoreSeq() { return ++store_seq_; }

  // Event logging is off during bulk exploration (string building would
  // dominate checker throughput); the violating schedule is deterministic,
  // so it is re-run once with logging on to enrich the counterexample.
  bool logging() const { return events_enabled_; }

  // Per-execution location naming: "A0", "A1", ... in construction order.
  std::string RegisterLocation(char kind);

  void LogEvent(std::string ev);

  // Implementation detail of Spawn/JoinAll/Yield/ModelAssert.
  void DoSpawn(std::function<void()> fn);
  void DoJoinAll();
  void DoAssert(bool cond, const std::string& msg);

 private:
  // Per-schedule logical state of a virtual thread.
  struct ThreadState {
    VectorClock clock;
    bool finished = false;
    bool yielded = false;
    bool blocked_join = false;   // vthread 0 waiting in JoinAll
  };

  // Persistent OS worker backing a virtual-thread slot. Workers are
  // created on first use and reused across every schedule of the
  // exploration — spawning fresh std::threads per schedule would dominate
  // the checker's runtime (and crawl under TSan in CI).
  struct Worker {
    std::thread os;
    std::function<void()> fn;
    bool has_work = false;
  };

  // DFS choice stack entry: at this point `num` alternatives existed and
  // `chosen` was taken.
  struct Choice {
    int chosen;
    int num;
  };

  // Consume the next choice (replaying the stack prefix, then extending
  // it with first-alternative 0).
  int Choose(int n);
  // Advance the stack to the next unexplored schedule; false = done.
  bool NextSchedule();
  std::string TraceString() const;
  void ParseReplay(const std::string& trace);

  // Pick the next thread to run. `current_runnable` is false when the
  // caller is finishing or blocking. Returns the chosen thread id, or -1
  // if nothing is runnable (deadlock — reported).
  int PickNext(bool current_runnable, bool voluntary);
  // Hand execution to `next` and block until rescheduled (or aborted).
  void SwitchTo(int next, std::unique_lock<std::mutex>& lk);

  void RunOneSchedule(const std::function<void()>& body);
  void WorkerMain(int id);
  void FinishThread(int id);
  void ResetExecutionState();

  const Options opts_;

  // Persistent across schedules within one exploration:
  std::vector<Choice> stack_;
  size_t stack_pos_ = 0;
  bool replay_mode_ = false;
  bool events_enabled_ = false;

  // Violation state (first violation wins; sticky across the abort).
  bool violated_ = false;
  std::string violation_message_;
  std::string violation_trace_;

  // Per-schedule execution state:
  std::vector<ThreadState> threads_;
  std::array<Worker, kMaxThreads> workers_;  // persistent, index = thread id
  std::mutex mu_;
  // One condvar per virtual-thread slot (slot 0 = the body): a handoff
  // wakes exactly the target thread instead of every parked worker, which
  // matters when the checker runs hundreds of thousands of schedules.
  std::array<std::condition_variable, kMaxThreads> cv_;
  // Wake every parked/waiting thread (abort, shutdown).
  void WakeAll();
  int active_ = 0;
  bool abort_ = false;
  bool shutdown_ = false;
  long steps_ = 0;
  int preemptions_used_ = 0;
  uint64_t store_seq_ = 0;
  int next_loc_id_ = 0;
  std::vector<std::string> events_;
};

}  // namespace verify
}  // namespace snap

#endif  // SRC_VERIFY_MODEL_H_
