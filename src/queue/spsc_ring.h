// Lock-free single-producer/single-consumer ring buffer.
//
// This is the communication primitive Snap uses everywhere on the data
// plane: application command/completion queues, engine-to-engine links,
// packet rings shared with the kernel packet-injection driver, and NIC
// descriptor rings all map onto bounded SPSC rings over shared memory
// (Section 2.2: "lock-free communication occurs over memory-mapped regions
// shared with the input or output").
//
// The ring is bounded by monotonically increasing head/tail indices with
// cached copies to minimize cross-core cache traffic, exactly like a flat
// power-of-two ring. The slots, however, live in a chain of fixed-size
// segments of min(capacity, kSegmentSlots) slots each, so a ring's memory
// follows its occupancy rather than its capacity: most rings hold a few
// elements at a time and never touch most of their capacity. The producer
// links a segment when it first crosses into it and recycles the oldest
// one once the consumer has left it (a Vyukov-style node cache). The
// hand-back is the consumer's head_ release store itself: once head_ has
// passed the first index after a segment, the consumer has taken every
// slot of that segment and read its link, and the producer's acquire of
// head_ orders its reuse after both. A ring therefore holds its high-water
// occupancy plus about one segment, never less than it can carry.
//
// Segments are cache-line aligned with the slots at a fixed offset after a
// one-line header, and each side keeps its current segment on its own
// local line, so the hot path never reads a shared header; it only
// branches when an index crosses a segment boundary.
//
// It is safe for exactly one producer thread and one consumer thread. The
// ring is parameterized over an atomics policy (see atomics_policy.h) so
// the model checker in src/verify/ can exhaustively explore its
// interleavings; production code uses the default StdAtomics policy.
#ifndef SRC_QUEUE_SPSC_RING_H_
#define SRC_QUEUE_SPSC_RING_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <new>
#include <optional>
#include <utility>

#include "src/queue/atomics_policy.h"
#include "src/util/logging.h"

namespace snap {

template <typename T, typename Policy = StdAtomics>
class SpscRing {
 public:
  // Slots per segment; a ring of smaller capacity is one segment.
  static constexpr size_t kSegmentSlots = 32;

  // Capacity is rounded up to a power of two; the ring holds up to
  // `capacity` elements.
  explicit SpscRing(size_t capacity) {
    SNAP_CHECK_GT(capacity, 0u);
    size_t cap = 1;
    while (cap < capacity) {
      cap <<= 1;
    }
    mask_ = cap - 1;
    seg_mask_ = std::min(cap, kSegmentSlots) - 1;
    Segment* seg = NewSegment();
    first_ = prod_seg_ = cons_seg_ = seg;
    first_end_ = prod_end_ = cons_end_ = seg_mask_ + 1;
  }

  ~SpscRing() {
    // Every segment is on the chain from first_ to prod_seg_.
    for (Segment* seg = first_; seg != nullptr;) {
      Segment* next = seg->next.Get();
      DeleteSegment(seg);
      seg = next;
    }
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return mask_ + 1; }

  // Producer side. Returns false when full.
  bool TryPush(T value) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ > mask_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ > mask_) {
        return false;
      }
    }
    if (tail == prod_end_) {
      EnterNextSegment(tail);
    }
    prod_seg_->slots()[tail & seg_mask_].Set(std::move(value));
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. Returns nullopt when empty.
  std::optional<T> TryPop() {
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) {
        return std::nullopt;
      }
    }
    if (head == cons_end_) {
      // The producer linked the next segment before publishing `head`.
      cons_seg_ = cons_seg_->next.Get();
      cons_end_ += seg_mask_ + 1;
    }
    T value = cons_seg_->slots()[head & seg_mask_].Take();
    head_.store(head + 1, std::memory_order_release);
    return value;
  }

  // Consumer side: peek without consuming.
  const T* Peek() const {
    const size_t head = head_.load(std::memory_order_relaxed);
    size_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) {
      return nullptr;
    }
    const Segment* seg = head == cons_end_ ? cons_seg_->next.Get() : cons_seg_;
    return &seg->slots()[head & seg_mask_].Get();
  }

  // Approximate size; exact when called from either endpoint's thread
  // between operations.
  size_t size() const {
    size_t tail = tail_.load(std::memory_order_acquire);
    size_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }

  bool empty() const { return size() == 0; }
  bool full() const { return size() > mask_; }

 private:
  template <typename U>
  using Atomic = typename Policy::template Atomic<U>;
  using Slot = typename Policy::template Cell<T>;

  // A one-line header followed by seg_mask_ + 1 slots.
  struct alignas(64) Segment {
    typename Policy::template Cell<Segment*> next;
    Slot* slots() { return reinterpret_cast<Slot*>(this + 1); }
    const Slot* slots() const {
      return reinterpret_cast<const Slot*>(this + 1);
    }
  };
  static_assert(alignof(Slot) <= alignof(Segment));

  Segment* NewSegment() {
    void* mem = ::operator new(
        sizeof(Segment) + (seg_mask_ + 1) * sizeof(Slot),
        std::align_val_t{alignof(Segment)});
    Segment* seg = new (mem) Segment();
    seg->next.Set(nullptr);
    for (size_t i = 0; i <= seg_mask_; ++i) {
      new (seg->slots() + i) Slot();
    }
    return seg;
  }

  void DeleteSegment(Segment* seg) {
    for (size_t i = 0; i <= seg_mask_; ++i) {
      seg->slots()[i].~Slot();
    }
    seg->~Segment();
    ::operator delete(seg, std::align_val_t{alignof(Segment)});
  }

  // Links a segment for the indices [tail, tail + segment size) after
  // prod_seg_. The oldest segment is reused once the consumer has popped
  // index first_end_, the first one after it; otherwise a new segment is
  // allocated. Kept out of line so that TryPush stays small enough to
  // inline at its call sites.
  [[gnu::noinline]] void EnterNextSegment(size_t tail) {
    if (cached_head_ <= first_end_ && first_end_ < tail) {
      cached_head_ = head_.load(std::memory_order_acquire);
    }
    Segment* seg;
    if (cached_head_ > first_end_) {
      seg = first_;
      first_ = seg->next.Get();
      first_end_ += seg_mask_ + 1;
      seg->next.Set(nullptr);
    } else {
      seg = NewSegment();
    }
    prod_seg_->next.Set(seg);
    prod_seg_ = seg;
    prod_end_ = tail + seg_mask_ + 1;
  }

  size_t mask_ = 0;      // capacity - 1
  size_t seg_mask_ = 0;  // slots per segment - 1

  alignas(64) Atomic<size_t> head_{0};
  // Consumer-local: the segment holding the last index popped, which
  // ends at cons_end_.
  alignas(64) size_t cached_tail_ = 0;
  Segment* cons_seg_ = nullptr;
  size_t cons_end_ = 0;
  alignas(64) Atomic<size_t> tail_{0};
  // Producer-local: the segment being filled (ending at prod_end_) and
  // the oldest segment of the chain (ending at first_end_), the next one
  // to recycle.
  alignas(64) size_t cached_head_ = 0;
  Segment* prod_seg_ = nullptr;
  size_t prod_end_ = 0;
  Segment* first_ = nullptr;
  size_t first_end_ = 0;
};

}  // namespace snap

#endif  // SRC_QUEUE_SPSC_RING_H_
