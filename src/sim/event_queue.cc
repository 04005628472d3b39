#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace tiamat::sim {

namespace {

constexpr std::size_t kArity = 4;

// An EventId holds the slot's generation above slot + 1, so no id is ever
// kInvalidEvent and releasing a slot makes every id issued for it stale.
constexpr unsigned kSlotBits = 32;
constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;

}  // namespace

void EventQueue::place(std::size_t pos, const Key& key) {
  heap_[pos] = key;
  slots_[key.slot].pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_up(std::size_t pos) {
  const Key key = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!key.before(heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, key);
}

void EventQueue::sift_down(std::size_t pos) {
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

// Removes the key at `pos`; the last key fills the hole and sifts either way.
void EventQueue::erase_at(std::size_t pos) {
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

std::function<void()> EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.pos = kFree;
  ++s.gen;
  free_slots_.push_back(slot);
  return std::exchange(s.fn, nullptr);
}

EventId EventQueue::schedule_at(Time when, std::function<void()> fn) {
  if (when < now_) when = now_;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  heap_.push_back(Key{when, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  return (EventId{slots_[slot].gen} << kSlotBits) | (EventId{slot} + 1);
}

bool EventQueue::cancel(EventId id) {
  const EventId low = id & kSlotMask;
  if (low == 0 || low > slots_.size()) return false;  // kInvalidEvent, bogus
  const auto slot = static_cast<std::uint32_t>(low - 1);
  const Slot& s = slots_[slot];
  // Already fired or cancelled (the slot is free, or reused under a newer
  // generation).
  if (s.pos == kFree || s.gen != id >> kSlotBits) return false;
  erase_at(s.pos);
  // The callback is destroyed at the end of this statement, with the queue
  // already consistent: a capture's destructor may re-enter it.
  release(slot);
  return true;
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  const Key top = heap_.front();
  erase_at(0);
  // Moved out before it runs: the callback may schedule (reusing this slot or
  // growing the slab) or cancel its own, now stale, id.
  std::function<void()> fn = release(top.slot);
  now_ = top.when;
  fn();
  return true;
}

std::size_t EventQueue::run_until_idle() {
  std::size_t fired = 0;
  while (step()) ++fired;
  return fired;
}

std::size_t EventQueue::run_until(Time deadline) {
  std::size_t fired = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    step();
    ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

}  // namespace tiamat::sim
