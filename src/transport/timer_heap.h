// Indexed timer heap: the one timed queue in the tree.
//
// sim::EventQueue keeps its callbacks in one, and every LoopbackTransport
// worker keeps its inbox in one. Values live in a slab of slots; a 4-ary
// min-heap orders plain (when, seq, slot) keys over it, and each live slot
// records where its key sits in the heap. Ties on `when` break in push order,
// so equal-time entries pop deterministically. `cancel` takes an entry out of
// the heap in O(log n) and hands its value back, so nothing of a cancelled
// entry stays behind. An Id is a generation-tagged handle to a slot
// (generation << 32 | slot + 1, never 0): once its entry pops or is
// cancelled the slot may be reused, and the old id is rejected rather than
// taken for the new entry.
//
// Not thread-safe; the loopback guards each worker's heap with its mutex.

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "transport/types.h"

namespace tiamat::transport {

template <typename T>
class TimerHeap {
 public:
  using Id = std::uint64_t;

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  /// Due time of the earliest entry. Requires !empty().
  Time next_due() const { return heap_.front().when; }

  /// Adds `value`, due at `when`, and returns its id.
  Id push(Time when, T value) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    slots_[slot].value = std::move(value);
    heap_.push_back(Key{when, next_seq_++, slot});
    sift_up(heap_.size() - 1);
    return (Id{slots_[slot].gen} << kSlotBits) | (Id{slot} + 1);
  }

  /// Removes the earliest entry and returns its value. Requires !empty().
  T pop() {
    const std::uint32_t slot = heap_.front().slot;
    erase_at(0);
    return release(slot);
  }

  /// Removes the entry `id` names and hands its value back; nullopt if it
  /// already popped, was cancelled, or never existed.
  std::optional<T> cancel(Id id) {
    const Id low = id & kSlotMask;
    if (low == 0 || low > slots_.size()) return std::nullopt;
    const auto slot = static_cast<std::uint32_t>(low - 1);
    const Slot& s = slots_[slot];
    // Free, or reused under a newer generation.
    if (s.pos == kFree || s.gen != id >> kSlotBits) return std::nullopt;
    erase_at(s.pos);
    return release(slot);
  }

 private:
  static constexpr std::size_t kArity = 4;
  static constexpr unsigned kSlotBits = 32;
  static constexpr Id kSlotMask = (Id{1} << kSlotBits) - 1;
  static constexpr std::uint32_t kFree = UINT32_MAX;

  struct Key {
    Time when;
    std::uint64_t seq;  // push order: the earlier push wins a tie
    std::uint32_t slot;
    bool before(const Key& o) const {
      return when != o.when ? when < o.when : seq < o.seq;
    }
  };
  struct Slot {
    T value;
    std::uint32_t pos = kFree;  // index of this slot's key in heap_
    std::uint32_t gen = 0;      // bumped on release; tags the slot's ids
  };

  // Every move of a key also updates its slot's `pos`.
  void place(std::size_t pos, const Key& key) {
    heap_[pos] = key;
    slots_[key.slot].pos = static_cast<std::uint32_t>(pos);
  }

  void sift_up(std::size_t pos) {
    const Key key = heap_[pos];
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / kArity;
      if (!key.before(heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, key);
  }

  void sift_down(std::size_t pos) {
    const Key key = heap_[pos];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = pos * kArity + 1;
      if (first >= n) break;
      const std::size_t end = std::min(first + kArity, n);
      std::size_t child = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (heap_[c].before(heap_[child])) child = c;
      }
      if (!heap_[child].before(key)) break;
      place(pos, heap_[child]);
      pos = child;
    }
    place(pos, key);
  }

  // Removes the key at `pos`; the last key fills the hole and sifts either
  // way.
  void erase_at(std::size_t pos) {
    const Key last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) return;
    heap_[pos] = last;
    if (pos > 0 && last.before(heap_[(pos - 1) / kArity])) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  }

  // Frees `slot` for reuse, staling its ids, and hands back its value.
  T release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.pos = kFree;
    ++s.gen;
    free_slots_.push_back(slot);
    return std::exchange(s.value, T{});
  }

  std::uint64_t next_seq_ = 0;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace tiamat::transport
