// Operator-new counting for the traced run: the benchmark binary replaces
// the global allocation functions, and counts calls while armed. Class-level
// allocators (Packet's freelist) bypass the global operator new by design,
// so the count is of allocations that reach the heap allocator's front door.
#ifndef SNAPBENCH_SRC_ALLOC_COUNT_H_
#define SNAPBENCH_SRC_ALLOC_COUNT_H_

#include <cstdint>

namespace snapbench {

void SetAllocCounting(bool on);
int64_t AllocCount();

}  // namespace snapbench

#endif  // SNAPBENCH_SRC_ALLOC_COUNT_H_
