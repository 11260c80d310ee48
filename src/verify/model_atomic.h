// Model-checked stand-ins for std::atomic and plain payload cells, used by
// instantiating the queue templates with the verify::ModelAtomics policy
// (see src/queue/atomics_policy.h for the policy contract and
// src/verify/model.h for the runtime).
//
// ModelAtomic<T> keeps the full history of stores to the location. A load
// is a scheduling point, and may observe *any* historical store that
// coherence (per-thread monotone observation) and happens-before (vector
// clocks) allow — the operational equivalent of per-thread store buffers
// draining late. Acquire loads that observe release stores join the
// releaser's clock; read-modify-writes always observe the newest store
// (atomicity) and carry release sequences forward. Relaxed stores publish
// no clock, which is precisely how a missing memory_order_release becomes
// detectable: the payload access it was supposed to order turns into a
// vector-clock data race on a ModelCell.
//
// ModelCell<T> is plain storage plus FastTrack-style race detection:
// every Set/Take/Get checks the access against the last write and the
// last reads under the current thread's clock and reports a "data race"
// violation (with a replayable schedule) when they are unordered.
#ifndef SRC_VERIFY_MODEL_ATOMIC_H_
#define SRC_VERIFY_MODEL_ATOMIC_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/logging.h"
#include "src/verify/model.h"

namespace snap {
namespace verify {

namespace internal {

inline bool IsAcquire(std::memory_order order) {
  return order == std::memory_order_acquire ||
         order == std::memory_order_acq_rel ||
         order == std::memory_order_seq_cst ||
         order == std::memory_order_consume;
}

inline bool IsRelease(std::memory_order order) {
  return order == std::memory_order_release ||
         order == std::memory_order_acq_rel ||
         order == std::memory_order_seq_cst;
}

// Failure ordering of the single-order compare_exchange form.
inline bool FailureIsAcquire(std::memory_order order) {
  return order == std::memory_order_acquire ||
         order == std::memory_order_acq_rel ||
         order == std::memory_order_seq_cst ||
         order == std::memory_order_consume;
}

inline const char* OrderName(std::memory_order order) {
  switch (order) {
    case std::memory_order_relaxed: return "rlx";
    case std::memory_order_consume: return "cns";
    case std::memory_order_acquire: return "acq";
    case std::memory_order_release: return "rel";
    case std::memory_order_acq_rel: return "ar";
    case std::memory_order_seq_cst: return "sc";
  }
  return "?";
}

template <typename T>
std::string FormatValue(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(static_cast<long long>(v));
  } else if constexpr (std::is_enum_v<T>) {
    return std::to_string(static_cast<long long>(
        static_cast<std::underlying_type_t<T>>(v)));
  } else if constexpr (std::is_pointer_v<T>) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%p", static_cast<const void*>(v));
    return buf;
  } else {
    return "<value>";
  }
}

inline Runtime* RequireRuntime(const char* what) {
  Runtime* rt = Current();
  SNAP_CHECK(rt != nullptr)
      << what << " used outside verify::Explore — model-checked types only "
      << "work inside an exploration body";
  return rt;
}

}  // namespace internal

template <typename T>
class ModelAtomic {
 public:
  ModelAtomic() : ModelAtomic(T{}) {}

  // NOLINTNEXTLINE(google-explicit-constructor): mirrors std::atomic init.
  ModelAtomic(T init) {
    Runtime* rt = internal::RequireRuntime("ModelAtomic");
    name_ = rt->RegisterLocation('A');
    StoreRec rec;
    rec.value = init;
    rec.writer = rt->current_thread();
    rec.tick = rt->Tick();
    rec.seq = rt->NextStoreSeq();
    rec.has_sync = false;
    observed_[rec.writer] = rec.seq;
    hist_.push_back(std::move(rec));
  }

  ModelAtomic(const ModelAtomic&) = delete;
  ModelAtomic& operator=(const ModelAtomic&) = delete;

  T load(std::memory_order order = std::memory_order_seq_cst) const {
    Runtime* rt = internal::RequireRuntime("ModelAtomic::load");
    rt->SchedulePoint();
    const int me = rt->current_thread();
    rt->Tick();
    VectorClock& clk = rt->CurrentClock();
    // Coherence + happens-before floor: the oldest store this thread may
    // still legally observe.
    uint64_t floor = observed_[me];
    for (const StoreRec& s : hist_) {
      if (s.writer == me || clk.Covers(s.writer, s.tick)) {
        floor = std::max(floor, s.seq);
      }
    }
    size_t first = hist_.size();
    while (first > 0 && hist_[first - 1].seq >= floor) --first;
    const int eligible = static_cast<int>(hist_.size() - first);
    // Branch over which store the load observes (0 = newest, i.e. the
    // sequentially-consistent outcome is explored first).
    int back = eligible > 1 ? rt->ChooseAlternative(eligible) : 0;
    const StoreRec& s = hist_[hist_.size() - 1 - back];
    observed_[me] = s.seq;
    if (internal::IsAcquire(order) && s.has_sync) {
      clk.Join(s.sync);
    }
    if (rt->logging()) {
      rt->LogEvent("t" + std::to_string(me) + " " + name_ + ".load(" +
                   internal::OrderName(order) + ") = " +
                   internal::FormatValue(s.value) +
                   (back > 0 ? " [stale -" + std::to_string(back) + "]" : ""));
    }
    return s.value;
  }

  void store(T v, std::memory_order order = std::memory_order_seq_cst) {
    Runtime* rt = internal::RequireRuntime("ModelAtomic::store");
    rt->SchedulePoint();
    const int me = rt->current_thread();
    StoreRec rec;
    rec.value = std::move(v);
    rec.writer = me;
    rec.tick = rt->Tick();
    rec.seq = rt->NextStoreSeq();
    rec.has_sync = internal::IsRelease(order);
    if (rec.has_sync) rec.sync = rt->CurrentClock();
    if (rt->logging()) {
      rt->LogEvent("t" + std::to_string(me) + " " + name_ + ".store(" +
                   internal::FormatValue(rec.value) + ", " +
                   internal::OrderName(order) + ")");
    }
    observed_[me] = rec.seq;
    hist_.push_back(std::move(rec));
  }

  T exchange(T v, std::memory_order order = std::memory_order_seq_cst) {
    Runtime* rt = internal::RequireRuntime("ModelAtomic::exchange");
    rt->SchedulePoint();
    const int me = rt->current_thread();
    const uint32_t tick = rt->Tick();
    VectorClock& clk = rt->CurrentClock();
    // RMW atomicity: always observes the newest store.
    const StoreRec prev = hist_.back();
    observed_[me] = prev.seq;
    if (internal::IsAcquire(order) && prev.has_sync) clk.Join(prev.sync);
    StoreRec rec;
    rec.value = std::move(v);
    rec.writer = me;
    rec.tick = tick;
    rec.seq = rt->NextStoreSeq();
    // An RMW continues the release sequence of the store it replaces.
    rec.has_sync = prev.has_sync || internal::IsRelease(order);
    if (prev.has_sync) rec.sync.Join(prev.sync);
    if (internal::IsRelease(order)) rec.sync.Join(clk);
    if (rt->logging()) {
      rt->LogEvent("t" + std::to_string(me) + " " + name_ + ".exchange(" +
                   internal::FormatValue(rec.value) + ", " +
                   internal::OrderName(order) + ") = " +
                   internal::FormatValue(prev.value));
    }
    observed_[me] = rec.seq;
    hist_.push_back(std::move(rec));
    return prev.value;
  }

  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order order = std::memory_order_seq_cst) {
    Runtime* rt =
        internal::RequireRuntime("ModelAtomic::compare_exchange_strong");
    rt->SchedulePoint();
    const int me = rt->current_thread();
    const uint32_t tick = rt->Tick();
    VectorClock& clk = rt->CurrentClock();
    const StoreRec prev = hist_.back();
    observed_[me] = prev.seq;
    if (prev.value == expected) {
      if (internal::IsAcquire(order) && prev.has_sync) clk.Join(prev.sync);
      StoreRec rec;
      rec.value = std::move(desired);
      rec.writer = me;
      rec.tick = tick;
      rec.seq = rt->NextStoreSeq();
      rec.has_sync = prev.has_sync || internal::IsRelease(order);
      if (prev.has_sync) rec.sync.Join(prev.sync);
      if (internal::IsRelease(order)) rec.sync.Join(clk);
      if (rt->logging()) {
        rt->LogEvent("t" + std::to_string(me) + " " + name_ + ".cas(" +
                     internal::FormatValue(expected) + "->" +
                     internal::FormatValue(rec.value) + ", " +
                     internal::OrderName(order) + ") ok");
      }
      observed_[me] = rec.seq;
      hist_.push_back(std::move(rec));
      return true;
    }
    if (internal::FailureIsAcquire(order) && prev.has_sync) {
      clk.Join(prev.sync);
    }
    if (rt->logging()) {
      rt->LogEvent("t" + std::to_string(me) + " " + name_ + ".cas(" +
                   internal::FormatValue(expected) + ", " +
                   internal::OrderName(order) + ") failed, saw " +
                   internal::FormatValue(prev.value));
    }
    expected = prev.value;
    return false;
  }

 private:
  struct StoreRec {
    T value{};
    int writer = 0;
    uint32_t tick = 0;
    uint64_t seq = 0;
    bool has_sync = false;   // carries a release (or release-sequence) clock
    VectorClock sync;
  };

  mutable std::vector<StoreRec> hist_;
  // Newest store seq each thread has observed (coherence floor).
  mutable std::array<uint64_t, kMaxThreads> observed_{};
  std::string name_;
};

// Plain payload slot with vector-clock race detection. Not a scheduling
// point (races are detected from the clocks regardless of interleaving
// granularity), so instrumenting payloads does not blow up the schedule
// tree.
template <typename T>
class ModelCell {
 public:
  ModelCell() {
    Runtime* rt = internal::RequireRuntime("ModelCell");
    name_ = rt->RegisterLocation('C');
  }

  ModelCell(const ModelCell&) = delete;
  ModelCell& operator=(const ModelCell&) = delete;
  // Movable so std::vector can size slot arrays; slots are only moved
  // during container setup, before any concurrent access.
  ModelCell(ModelCell&&) = default;
  ModelCell& operator=(ModelCell&&) = default;

  void Set(T value) {
    WriteCheck("Set");
    value_ = std::move(value);
  }

  T Take() {
    WriteCheck("Take");
    return std::move(value_);
  }

  const T& Get() const {
    ReadCheck("Get");
    return value_;
  }

 private:
  void WriteCheck(const char* op) const {
    Runtime* rt = internal::RequireRuntime("ModelCell");
    // An aborted schedule's destructors may touch cells unordered while
    // its threads unwind; the violation is already recorded.
    if (rt->aborting()) return;
    const int me = rt->current_thread();
    const VectorClock& clk = rt->CurrentClock();
    if (last_writer_ >= 0 && last_writer_ != me &&
        !clk.Covers(last_writer_, last_write_tick_)) {
      rt->ReportViolation(
          "data race",
          "cell " + name_ + ": " + op + " by t" + std::to_string(me) +
              " is unordered with a write by t" +
              std::to_string(last_writer_) +
              " (missing release/acquire edge)");
    }
    for (int u = 0; u < kMaxThreads; ++u) {
      if (u != me && read_ticks_[u] != 0 &&
          !clk.Covers(u, read_ticks_[u])) {
        rt->ReportViolation(
            "data race",
            "cell " + name_ + ": " + op + " by t" + std::to_string(me) +
                " is unordered with a read by t" + std::to_string(u) +
                " (missing release/acquire edge)");
      }
    }
    last_writer_ = me;
    last_write_tick_ = rt->Tick();
    read_ticks_.fill(0);
    if (rt->logging()) {
      rt->LogEvent("t" + std::to_string(me) + " " + name_ + "." + op);
    }
  }

  void ReadCheck(const char* op) const {
    Runtime* rt = internal::RequireRuntime("ModelCell");
    if (rt->aborting()) return;  // see WriteCheck
    const int me = rt->current_thread();
    const VectorClock& clk = rt->CurrentClock();
    if (last_writer_ >= 0 && last_writer_ != me &&
        !clk.Covers(last_writer_, last_write_tick_)) {
      rt->ReportViolation(
          "data race",
          "cell " + name_ + ": " + op + " by t" + std::to_string(me) +
              " is unordered with a write by t" +
              std::to_string(last_writer_) +
              " (missing release/acquire edge)");
    }
    read_ticks_[me] = rt->Tick();
    if (rt->logging()) {
      rt->LogEvent("t" + std::to_string(me) + " " + name_ + "." + op);
    }
  }

  T value_{};
  mutable int last_writer_ = -1;
  mutable uint32_t last_write_tick_ = 0;
  mutable std::array<uint32_t, kMaxThreads> read_ticks_{};
  std::string name_;
};

// Atomics policy plugging the model-checked types into the queue
// templates (see src/queue/atomics_policy.h).
struct ModelAtomics {
  template <typename T>
  using Atomic = ModelAtomic<T>;

  template <typename T>
  using Cell = ModelCell<T>;
};

}  // namespace verify
}  // namespace snap

#endif  // SRC_VERIFY_MODEL_ATOMIC_H_
