// Discrete-event queue: time-ordered callbacks with stable FIFO ordering
// for equal timestamps and O(1) cancellation via generation-checked handles.
//
// The queue is a hierarchical timer wheel. Events live in slab-allocated,
// generation-counted records; a near wheel of 256 x 64ns slots covers the
// current ~16us block, a far wheel of 256 block-sized slots covers the
// next ~4.2ms, and genuinely distant events (RTOs, app timers) overflow
// into a small binary heap that cascades back through the wheels as
// simulated time advances. Scheduling and popping are O(1) amortized and
// allocation-free for callbacks whose captures fit EventCallback's inline
// buffer.
//
// Events execute in (time, schedule sequence) order, so a simulation is
// bit-identical run to run; tests/sim_test.cc checks the fire order
// against that spec directly.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/logging.h"
#include "src/util/time_types.h"

namespace snap {

class Telemetry;
class EventQueue;

// --------------------------------------------------------------------------
// EventCallback: a move-only type-erased void() callable with inline
// storage. The dominant simulation callbacks capture a `this` pointer and
// a couple of scalars; those construct, move and destroy without touching
// the allocator. Larger captures fall back to the heap (counted in
// EventQueueStats::callback_heap_allocs). Unlike std::function it accepts
// move-only captures (e.g. a PacketPtr), which lets packet-carrying
// events own their packet instead of juggling raw pointers.
// --------------------------------------------------------------------------
class EventCallback {
 public:
  static constexpr size_t kInlineBytes = 48;

  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& f) {  // NOLINT: implicit by design, like std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ptr_ = new Fn(std::forward<F>(f));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventCallback(EventCallback&& other) noexcept { MoveFrom(&other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(&other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { Reset(); }

  void operator()() { ops_->invoke(this); }
  explicit operator bool() const { return ops_ != nullptr; }
  // True when the callable lives in the inline buffer (no allocation).
  bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

 private:
  struct Ops {
    void (*invoke)(EventCallback*);
    // Move-constructs src's callable into raw dst storage, destroying src.
    void (*move)(EventCallback* dst, EventCallback* src);
    void (*destroy)(EventCallback*);
    bool inline_storage;
  };

  // Declared before the Ops tables below: static-member initializers are
  // not a complete-class context, so the lambdas there need these members
  // already visible.
  const Ops* ops_ = nullptr;
  union {
    void* ptr_;
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  };

  template <typename Fn>
  Fn* inline_target() {
    return std::launder(reinterpret_cast<Fn*>(buf_));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      /*invoke=*/[](EventCallback* self) { (*self->inline_target<Fn>())(); },
      /*move=*/
      [](EventCallback* dst, EventCallback* src) {
        ::new (static_cast<void*>(dst->buf_))
            Fn(std::move(*src->inline_target<Fn>()));
        src->inline_target<Fn>()->~Fn();
      },
      /*destroy=*/[](EventCallback* self) { self->inline_target<Fn>()->~Fn(); },
      /*inline_storage=*/true,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      /*invoke=*/
      [](EventCallback* self) { (*static_cast<Fn*>(self->ptr_))(); },
      /*move=*/
      [](EventCallback* dst, EventCallback* src) { dst->ptr_ = src->ptr_; },
      /*destroy=*/[](EventCallback* self) { delete static_cast<Fn*>(self->ptr_); },
      /*inline_storage=*/false,
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(this);
      ops_ = nullptr;
    }
  }
  void MoveFrom(EventCallback* other) {
    ops_ = other->ops_;
    if (ops_ != nullptr) {
      ops_->move(this, other);
      other->ops_ = nullptr;
    }
  }
};

// --------------------------------------------------------------------------
// EventHandle: cancellable reference to a scheduled event. Copyable; cheap.
// It is a (queue, slot, generation) triple -- stale handles (the slot was
// reused after the event fired) are detected by the generation check.
// Handles must not outlive the EventQueue they came from (every
// handle in the tree is owned by an object whose lifetime is nested
// inside its Simulator's).
// --------------------------------------------------------------------------
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not fired yet. Idempotent; a stale handle
  // (event already fired, slot since reused) is a no-op.
  inline void Cancel();
  inline bool pending() const;

 private:
  friend class EventQueue;

  EventHandle(EventQueue* queue, uint32_t index, uint32_t gen)
      : queue_(queue), index_(index), gen_(gen) {}

  EventQueue* queue_ = nullptr;
  uint32_t index_ = 0;
  uint32_t gen_ = 0;
};

// Hot-path instrumentation, exported into snap_stats via
// EventQueue::ExportStats.
struct EventQueueStats {
  int64_t scheduled = 0;
  int64_t fired = 0;
  int64_t cancelled = 0;
  // Callbacks whose captures exceeded EventCallback's inline buffer.
  int64_t callback_heap_allocs = 0;
  int64_t near_inserts = 0;      // landed in the current 16us block
  int64_t far_inserts = 0;       // landed within the next ~4.2ms
  int64_t overflow_inserts = 0;  // distant events, parked in the heap
  int64_t ready_inserts = 0;     // landed below the harvest boundary
  int64_t cascades = 0;          // far-slot -> near-wheel redistributions
  int64_t block_jumps = 0;       // near-wheel rebasing steps
  int64_t slab_high_water = 0;   // peak live slab records
};

// --------------------------------------------------------------------------
// EventQueue
// --------------------------------------------------------------------------
class EventQueue {
 public:
  using Callback = EventCallback;

  // Near wheel: 256 slots of 64ns cover one 16.4us block exactly.
  static constexpr int kGranularityBits = 6;
  static constexpr int kNearBits = 8;
  static constexpr int kNearSlots = 1 << kNearBits;
  // Far wheel: 256 block-sized slots cover the next ~4.19ms.
  static constexpr int kFarBits = 8;
  static constexpr int kFarSlots = 1 << kFarBits;

  EventQueue() {
    near_head_.assign(kNearSlots, kNil);
    far_head_.assign(kFarSlots, kNil);
    // Records are ~100 bytes; growing the slab move-copies every live
    // callback, so start at a size that absorbs typical populations.
    slab_.reserve(4096);
  }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `cb` to run at absolute time `when`. Events at the same time
  // fire in scheduling order. Rvalue-ref on purpose: callbacks are
  // scheduled millions of times per simulated second, and every by-value
  // hop is a type-erased move; this way the only move is into the slab
  // record.
  EventHandle ScheduleAt(SimTime when, Callback&& cb) {
    SNAP_CHECK_GE(when, 0);
    uint32_t idx = AllocRecord();
    Record& r = slab_[idx];
    r.when = when;
    r.seq = next_seq_++;
    r.cb = std::move(cb);
    ++live_;
    ++stats_.scheduled;
    if (!r.cb.is_inline() && r.cb) {
      ++stats_.callback_heap_allocs;
    }
    stats_.slab_high_water =
        std::max(stats_.slab_high_water, static_cast<int64_t>(live_));
    File(idx, when);
    return EventHandle(this, idx, r.gen);
  }

  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }

  // Time of the earliest live event; kSimTimeNever when empty. Lazily
  // reaps cancelled records and advances the wheels, hence non-const.
  SimTime NextEventTime() {
    if (!EnsureReady()) {
      return kSimTimeNever;
    }
    return slab_[ready_[ready_pos_]].when;
  }

  // Pops the earliest live event WITHOUT running it. Returns false when
  // empty. The caller advances its clock before invoking the callback so
  // that work scheduled from inside the callback sees the correct time.
  bool PopNext(SimTime* when, Callback* cb) {
    if (!EnsureReady()) {
      return false;
    }
    uint32_t idx = ready_[ready_pos_++];
    Record& r = slab_[idx];
    *when = r.when;
    *cb = std::move(r.cb);
    --live_;
    ++stats_.fired;
    FreeRecord(idx);
    if (ready_pos_ == ready_.size()) {
      ready_.clear();
      ready_pos_ = 0;
    }
    return true;
  }

  void Cancel(uint32_t index, uint32_t gen) {
    if (index >= slab_.size()) {
      return;
    }
    Record& r = slab_[index];
    if (r.gen != gen || !r.scheduled || r.cancelled) {
      return;
    }
    r.cancelled = true;
    --live_;
    ++stats_.cancelled;
  }

  bool Pending(uint32_t index, uint32_t gen) const {
    if (index >= slab_.size()) {
      return false;
    }
    const Record& r = slab_[index];
    return r.gen == gen && r.scheduled && !r.cancelled;
  }

  const EventQueueStats& stats() const { return stats_; }

  // Publishes the queue's counters as "<prefix>/scheduled" etc. into the
  // Telemetry registry (src/stats/telemetry.h). In event_queue.cc.
  void ExportStats(Telemetry* telemetry, const std::string& prefix) const;

 private:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  struct Record {
    SimTime when = 0;
    uint64_t seq = 0;
    uint32_t next = kNil;  // slot-chain / freelist link
    uint32_t gen = 0;
    bool scheduled = false;
    bool cancelled = false;
    EventCallback cb;
  };

  struct OverflowEntry {
    SimTime when;
    uint64_t seq;
    uint32_t index;
  };
  struct OverflowLater {
    bool operator()(const OverflowEntry& a, const OverflowEntry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  uint32_t AllocRecord() {
    if (free_head_ != kNil) {
      uint32_t idx = free_head_;
      free_head_ = slab_[idx].next;
      slab_[idx].next = kNil;
      slab_[idx].scheduled = true;
      slab_[idx].cancelled = false;
      return idx;
    }
    SNAP_CHECK_LT(slab_.size(), static_cast<size_t>(kNil));
    slab_.emplace_back();
    slab_.back().scheduled = true;
    return static_cast<uint32_t>(slab_.size() - 1);
  }

  // Retires a record: invalidates outstanding handles and releases the
  // callback's resources. The caller has already removed it from every
  // slot chain / the ready buffer.
  void FreeRecord(uint32_t idx) {
    Record& r = slab_[idx];
    ++r.gen;
    r.scheduled = false;
    r.cancelled = false;
    r.cb = EventCallback();
    r.next = free_head_;
    free_head_ = idx;
  }

  bool KeyLess(uint32_t a, uint32_t b) const {
    const Record& ra = slab_[a];
    const Record& rb = slab_[b];
    if (ra.when != rb.when) {
      return ra.when < rb.when;
    }
    return ra.seq < rb.seq;
  }

  // Files a record into the ready buffer, a wheel, or the overflow heap
  // according to its deadline. Shared by ScheduleAt and cascading.
  void File(uint32_t idx, SimTime when) {
    if (when < harvest_time_) {
      InsertReady(idx);
      ++stats_.ready_inserts;
      return;
    }
    int64_t slot = when >> kGranularityBits;
    int64_t block = slot >> kNearBits;
    if (block == cur_block_) {
      int s = static_cast<int>(slot & (kNearSlots - 1));
      slab_[idx].next = near_head_[s];
      near_head_[s] = idx;
      near_bits_[s >> 6] |= 1ull << (s & 63);
      ++stats_.near_inserts;
    } else if (block - cur_block_ <= kFarSlots) {
      int f = static_cast<int>(block & (kFarSlots - 1));
      slab_[idx].next = far_head_[f];
      far_head_[f] = idx;
      far_bits_[f >> 6] |= 1ull << (f & 63);
      ++stats_.far_inserts;
    } else {
      overflow_.push_back(OverflowEntry{when, slab_[idx].seq, idx});
      std::push_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
      ++stats_.overflow_inserts;
    }
  }

  void InsertReady(uint32_t idx) {
    auto it = std::lower_bound(
        ready_.begin() + static_cast<ptrdiff_t>(ready_pos_), ready_.end(),
        idx, [this](uint32_t a, uint32_t b) { return KeyLess(a, b); });
    ready_.insert(it, idx);
  }

  // Makes ready_[ready_pos_] the earliest live event. Returns false when
  // no live events remain. Reaps cancelled records it passes over.
  bool EnsureReady() {
    while (true) {
      while (ready_pos_ < ready_.size()) {
        uint32_t idx = ready_[ready_pos_];
        if (!slab_[idx].cancelled) {
          return true;
        }
        FreeRecord(idx);
        ++ready_pos_;
      }
      ready_.clear();
      ready_pos_ = 0;
      if (live_ == 0) {
        return false;
      }
      AdvanceAndHarvest();
    }
  }

  // Cold path, in event_queue.cc: advances to the next populated near
  // slot (rebasing across blocks / cascading the far wheel / pulling the
  // overflow heap as needed) and moves that slot's records into ready_.
  void AdvanceAndHarvest();
  void AdvanceBlock();
  int FindNearBit(int from) const;
  int FarScanDistance() const;

  std::vector<Record> slab_;
  uint32_t free_head_ = kNil;

  std::vector<uint32_t> near_head_;
  std::vector<uint32_t> far_head_;
  uint64_t near_bits_[kNearSlots / 64] = {};
  uint64_t far_bits_[kFarSlots / 64] = {};

  std::vector<OverflowEntry> overflow_;  // min-heap by (when, seq)

  // Sorted (by (when, seq)) indices of every pending record with
  // when < harvest_time_; consumed from ready_pos_.
  std::vector<uint32_t> ready_;
  size_t ready_pos_ = 0;

  int64_t cur_block_ = 0;     // absolute block number (slot >> kNearBits)
  int next_slot_ = 0;         // next unharvested slot within cur_block_
  SimTime harvest_time_ = 0;  // start time of the next unharvested slot

  uint64_t next_seq_ = 0;
  size_t live_ = 0;
  EventQueueStats stats_;
};

inline void EventHandle::Cancel() {
  if (queue_ != nullptr) {
    queue_->Cancel(index_, gen_);
  }
}

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->Pending(index_, gen_);
}

}  // namespace snap

#endif  // SRC_SIM_EVENT_QUEUE_H_
