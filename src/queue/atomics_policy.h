// Atomics policy for the lock-free queue templates.
//
// Snap's dataplane rests on two lock-free shared-memory primitives
// (SpscRing, EngineMailbox). Their correctness depends on a
// handful of memory_order annotations that no amount of ordinary testing
// can exhaustively exercise. To make them *model-checkable*, each queue is
// parameterized over an atomics policy:
//
//   - `StdAtomics` (this header, the default): `Atomic<T>` is plain
//     `std::atomic<T>` and `Cell<T>` is a zero-cost wrapper around plain
//     storage. Production code instantiates this policy and compiles to
//     exactly the code the un-templated queues produced.
//   - `verify::ModelAtomics` (src/verify/model_atomic.h): every atomic
//     access becomes a scheduling point in a deterministic model-checking
//     runtime that enumerates thread interleavings and weak-memory
//     outcomes, and every Cell access is race-checked with vector clocks.
//
// A policy provides:
//   template <typename T> using Atomic = ...;   // std::atomic-compatible
//   template <typename T> class Cell { Set / Take / Get };  // plain data
//
// Cell<T> marks non-atomic payload slots whose safety is supposed to be
// guaranteed by the surrounding acquire/release protocol — exactly the
// accesses a missing `memory_order_release` turns into data races.
#ifndef SRC_QUEUE_ATOMICS_POLICY_H_
#define SRC_QUEUE_ATOMICS_POLICY_H_

#include <atomic>
#include <utility>

namespace snap {

// Default policy: real atomics, plain payload storage. Zero overhead — all
// Cell methods are trivial inline forwarders.
struct StdAtomics {
  template <typename T>
  using Atomic = std::atomic<T>;

  template <typename T>
  class Cell {
   public:
    void Set(T value) { value_ = std::move(value); }
    T Take() { return std::move(value_); }
    const T& Get() const { return value_; }

   private:
    T value_;
  };
};

}  // namespace snap

#endif  // SRC_QUEUE_ATOMICS_POLICY_H_
