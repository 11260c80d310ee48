// Doorbell: a Dekker-style park/wake handshake between one waiter thread
// and any number of ringer threads — the cross-thread wakeup primitive of
// live mode (src/live/), factored out of LiveExecutor so the same audited
// handshake serves scheduler-worker parking and the application
// blocking-notify path (PonyClient::BindDoorbell).
//
// The lost-wakeup window this closes: a ringer that publishes work and
// rings between the waiter's "is there work?" check and its park must not
// be missed. The handshake is two seq_cst flags:
//
//   ringer:  pending_ = true  (seq_cst)        waiter:  waiting_ = true
//            if (waiting_) { lock; unlock; }            if (!pending_)
//            notify                                         sleep
//
// The waiter stores waiting_ and tests pending_ while holding the mutex
// (the condition_variable predicate); the ringer stores pending_ then
// loads waiting_. In the seq_cst total order one side always observes the
// other: either the waiter's predicate sees pending_ and never sleeps, or
// the ringer sees waiting_ and serializes on the mutex, so its notify
// lands after the waiter is actually waiting. The fast path (no waiter)
// costs the ringer one store + one load, no lock. The same flag protocol
// inside LiveExecutor survived the PR 10 lost-wakeup audit; the TSan
// stress in tests/live_doorbell_test.cc pins the ordering.
//
// Contract: at most ONE thread waits (notify_one); any thread may ring.
// Consume() and WaitFor() belong to the waiter. A Ring with no waiter is
// remembered in pending_ until consumed — edge-triggered, never lost.
#ifndef SRC_UTIL_DOORBELL_H_
#define SRC_UTIL_DOORBELL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace snap {

class Doorbell {
 public:
  Doorbell() = default;
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  // Any thread: ring the bell. Wakes the waiter if one is parked; the
  // ring is latched in pending_ otherwise.
  void Ring() {
    rings_.fetch_add(1, std::memory_order_relaxed);
    pending_.store(true, std::memory_order_seq_cst);
    if (waiting_.load(std::memory_order_seq_cst)) {
      // Empty critical section: serialize with the waiter entering wait so
      // the notify cannot land between its predicate check and the wait.
      { std::lock_guard<std::mutex> lock(mutex_); }
      cv_.notify_one();
    }
  }

  // Waiter: clears the latch; returns whether it was set. Call at the top
  // of the poll loop so anything rung after this point triggers another
  // pass instead of being absorbed by the current one.
  bool Consume() { return pending_.exchange(false, std::memory_order_seq_cst); }

  bool pending() const { return pending_.load(std::memory_order_seq_cst); }

  // Waiter: blocks until rung or `timeout_ns` elapses. Returns the latch
  // state on exit (true = rung; does NOT consume — the waiter's loop-top
  // Consume() does). Returns immediately when already rung.
  bool WaitFor(int64_t timeout_ns) {
    if (timeout_ns <= 0 || pending()) {
      return pending();
    }
    std::unique_lock<std::mutex> lock(mutex_);
    waiting_.store(true, std::memory_order_seq_cst);
    waits_.fetch_add(1, std::memory_order_relaxed);
    cv_.wait_for(lock, std::chrono::nanoseconds(timeout_ns), [this] {
      return pending_.load(std::memory_order_seq_cst);
    });
    waiting_.store(false, std::memory_order_seq_cst);
    return pending_.load(std::memory_order_seq_cst);
  }

  // Counters (relaxed; exact once the threads have quiesced).
  int64_t rings() const { return rings_.load(std::memory_order_relaxed); }
  int64_t waits() const { return waits_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> pending_{false};
  std::atomic<bool> waiting_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<int64_t> rings_{0};
  std::atomic<int64_t> waits_{0};
};

}  // namespace snap

#endif  // SRC_UTIL_DOORBELL_H_
