#include "src/packet/packet.h"

namespace snap {

namespace {

// Singly-linked freelist threaded through the recycled blocks themselves.
// thread_local: the simulator is single-threaded, but benchmarks and tests
// may run several simulators on different threads; per-thread lists need
// no locking and a block freed on another thread simply lands there.
struct FreeBlock {
  FreeBlock* next;
};

constexpr int kMaxFreeBlocks = 4096;

// Trivially destructible, so the allocation fast path pays no TLS guard.
thread_local FreeBlock* t_free_list = nullptr;
thread_local int t_free_count = 0;

// Returns the list's blocks to ::operator delete when the thread exits.
// Armed on the first push into an empty list, so it costs nothing on the
// fast path. After it runs the list reads as full, so a packet freed by a
// later thread_local destructor bypasses it.
struct FreeListReaper {
  bool armed = false;
  ~FreeListReaper() {
    while (t_free_list != nullptr) {
      FreeBlock* block = t_free_list;
      t_free_list = block->next;
      ::operator delete(block);
    }
    t_free_count = kMaxFreeBlocks;
  }
};

thread_local FreeListReaper t_free_list_reaper;

// Payload-buffer cache: cleared vectors that keep their heap capacity.
// Bounded both in count and per-buffer capacity so a rare jumbo payload
// cannot pin memory forever.
constexpr int kMaxCachedBuffers = 1024;
constexpr size_t kMaxCachedCapacity = 64 * 1024;

thread_local std::vector<std::vector<uint8_t>> t_buffer_cache;

}  // namespace

std::vector<uint8_t> TakePayloadBuffer() {
  if (t_buffer_cache.empty()) {
    return {};
  }
  std::vector<uint8_t> buf = std::move(t_buffer_cache.back());
  t_buffer_cache.pop_back();
  return buf;
}

void StashPayloadBuffer(std::vector<uint8_t> buf) {
  if (buf.capacity() == 0 || buf.capacity() > kMaxCachedCapacity ||
      t_buffer_cache.size() >= kMaxCachedBuffers) {
    return;
  }
  buf.clear();
  t_buffer_cache.push_back(std::move(buf));
}

Packet::Packet() : data(TakePayloadBuffer()) {}

Packet::~Packet() { StashPayloadBuffer(std::move(data)); }

void* Packet::operator new(std::size_t size) {
  if (size == sizeof(Packet) && t_free_list != nullptr) {
    FreeBlock* block = t_free_list;
    t_free_list = block->next;
    --t_free_count;
    return block;
  }
  return ::operator new(size);
}

void Packet::operator delete(void* p) noexcept {
  if (p == nullptr) {
    return;
  }
  if (t_free_count < kMaxFreeBlocks) {
    if (t_free_list == nullptr) {
      t_free_list_reaper.armed = true;
    }
    auto* block = static_cast<FreeBlock*>(p);
    block->next = t_free_list;
    t_free_list = block;
    ++t_free_count;
    return;
  }
  ::operator delete(p);
}

void Packet::operator delete(void* p, std::size_t) noexcept {
  Packet::operator delete(p);
}

}  // namespace snap
