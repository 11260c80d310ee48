#include "src/sim/event_queue.h"

#include <algorithm>

#include "src/stats/telemetry.h"

namespace snap {

int EventQueue::FindNearBit(int from) const {
  if (from >= kNearSlots) {
    return -1;
  }
  int w = from >> 6;
  uint64_t word = near_bits_[w] & (~0ull << (from & 63));
  while (true) {
    if (word != 0) {
      return (w << 6) + __builtin_ctzll(word);
    }
    if (++w >= kNearSlots / 64) {
      return -1;
    }
    word = near_bits_[w];
  }
}

// Distance in blocks (1..kFarSlots) from cur_block_ to the first populated
// far cell, or 0 if the far wheel is empty. Within the valid window every
// populated cell maps to exactly one block (blocks in (cur_block_,
// cur_block_ + kFarSlots] hit distinct cells), so cell order == block order.
int EventQueue::FarScanDistance() const {
  const int start = static_cast<int>((cur_block_ + 1) & (kFarSlots - 1));
  for (int d = 0; d < kFarSlots; ++d) {
    const int cell = (start + d) & (kFarSlots - 1);
    if (far_bits_[cell >> 6] & (1ull << (cell & 63))) {
      return d + 1;
    }
  }
  return 0;
}

// Rebase the near wheel onto the next block holding work: jump cur_block_
// to the earlier of (first populated far cell, overflow heap top), cascade
// that far cell into the near wheel, and pull any overflow records whose
// block has come into range.
void EventQueue::AdvanceBlock() {
  ++stats_.block_jumps;

  const int far_dist = FarScanDistance();
  int64_t target = far_dist > 0 ? cur_block_ + far_dist : INT64_MAX;
  if (!overflow_.empty()) {
    const int64_t overflow_block =
        overflow_.front().when >> (kGranularityBits + kNearBits);
    target = std::min(target, std::max(overflow_block, cur_block_ + 1));
  }
  // Callers guarantee at least one live record remains, and the near wheel
  // and ready buffer are exhausted -- it must be in the far wheel or the
  // overflow heap.
  SNAP_CHECK_NE(target, INT64_MAX);

  cur_block_ = target;
  next_slot_ = 0;
  harvest_time_ = (cur_block_ << kNearBits) << kGranularityBits;

  // Cascade this block's far cell into the near wheel.
  const int cell = static_cast<int>(cur_block_ & (kFarSlots - 1));
  uint32_t idx = far_head_[cell];
  if (idx != kNil) {
    ++stats_.cascades;
    far_head_[cell] = kNil;
    far_bits_[cell >> 6] &= ~(1ull << (cell & 63));
    while (idx != kNil) {
      const uint32_t next = slab_[idx].next;
      slab_[idx].next = kNil;
      if (slab_[idx].cancelled) {
        FreeRecord(idx);
      } else {
        File(idx, slab_[idx].when);
      }
      idx = next;
    }
  }

  // Pull overflow records whose block is now current.
  while (!overflow_.empty() &&
         (overflow_.front().when >> (kGranularityBits + kNearBits)) <=
             cur_block_) {
    std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
    const OverflowEntry e = overflow_.back();
    overflow_.pop_back();
    if (slab_[e.index].cancelled) {
      FreeRecord(e.index);
    } else {
      File(e.index, e.when);
    }
  }
}

// Advance to the next populated near slot (rebasing blocks as needed) and
// move its live records, sorted by (when, seq), into the ready buffer.
// Preconditions: ready_ is empty and at least one live record exists.
void EventQueue::AdvanceAndHarvest() {
  while (true) {
    const int s = FindNearBit(next_slot_);
    if (s < 0) {
      AdvanceBlock();
      continue;
    }
    next_slot_ = s + 1;
    harvest_time_ =
        ((cur_block_ << kNearBits) + next_slot_) << kGranularityBits;

    uint32_t idx = near_head_[s];
    near_head_[s] = kNil;
    near_bits_[s >> 6] &= ~(1ull << (s & 63));
    while (idx != kNil) {
      const uint32_t next = slab_[idx].next;
      slab_[idx].next = kNil;
      if (slab_[idx].cancelled) {
        FreeRecord(idx);
      } else {
        ready_.push_back(idx);
      }
      idx = next;
    }
    if (!ready_.empty()) {
      std::sort(ready_.begin(), ready_.end(),
                [this](uint32_t a, uint32_t b) { return KeyLess(a, b); });
      return;
    }
  }
}

void EventQueue::ExportStats(Telemetry* telemetry,
                             const std::string& prefix) const {
  const EventQueueStats& s = stats_;
  auto set = [&](const char* name, int64_t v) {
    telemetry->SetCounter(prefix + "/" + name, v);
  };
  set("scheduled", s.scheduled);
  set("fired", s.fired);
  set("cancelled", s.cancelled);
  set("callback_heap_allocs", s.callback_heap_allocs);
  set("near_inserts", s.near_inserts);
  set("far_inserts", s.far_inserts);
  set("overflow_inserts", s.overflow_inserts);
  set("ready_inserts", s.ready_inserts);
  set("cascades", s.cascades);
  set("block_jumps", s.block_jumps);
  set("slab_high_water", s.slab_high_water);
}

}  // namespace snap
