#include "snapbench/src/alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace snapbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

int64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace snapbench

// Every non-aligned form is replaced, so each allocation is released by
// the matching deallocation (the aligned forms keep the library's pair).
void* operator new(std::size_t size) { return snapbench::CountedAlloc(size); }
void* operator new[](std::size_t size) {
  return snapbench::CountedAlloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return snapbench::CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
