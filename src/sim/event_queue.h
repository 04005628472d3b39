// Deterministic discrete-event queue.
//
// Events scheduled for the same instant fire in scheduling order (a strictly
// increasing sequence number breaks ties), so a run never depends on
// container iteration order or any other incidental source of
// nondeterminism.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/clock.h"
#include "transport/timer.h"

namespace tiamat::sim {

/// Identifies a scheduled event so it can be cancelled before it fires.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEvent = 0;

/// Priority queue of timed callbacks over virtual time.
///
/// The queue is the single driver of a simulation: everything that "takes
/// time" (message latency, lease expiry, compute delays, mobility ticks) is
/// an event. `run_until_idle` therefore terminates exactly when the modelled
/// system has quiesced.
///
/// The queue IS the simulator's transport::TimerService: protocol code that
/// schedules through the transport clock abstraction runs unchanged on
/// virtual time, and existing call sites can pass an EventQueue wherever a
/// TimerService is expected (`schedule_after` is inherited from it).
///
/// Callbacks live in a slab of slots; a 4-ary min-heap orders plain
/// (when, seq, slot) keys over it, and each live slot records where its key
/// sits in the heap. `cancel` therefore takes the event out of the heap in
/// O(log n) and destroys its callback (and whatever the closure captured)
/// before it returns: a cancelled timer leaves no tombstone. An EventId is
/// a generation-tagged handle to a slot, not a schedule counter — once its
/// event fires or is cancelled the slot may be reused, and the old id is
/// rejected rather than taken for the new event.
class EventQueue final : public transport::TimerService {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current virtual time. Starts at 0.
  Time now() const override { return now_; }

  /// Schedules `fn` to run at absolute time `when` (>= now) and returns a
  /// handle usable with `cancel`. Scheduling in the past clamps to `now`.
  EventId schedule_at(Time when, std::function<void()> fn) override;

  /// Cancels a pending event: removes it from the queue and destroys its
  /// callback. Returns false if it already fired, was already cancelled, or
  /// never existed.
  bool cancel(EventId id) override;

  /// Runs events until the queue is empty. Returns the number fired.
  std::size_t run_until_idle();

  /// Runs events with firing time <= `deadline`, then advances the clock to
  /// `deadline` (even if the queue emptied earlier). Returns events fired.
  std::size_t run_until(Time deadline);

  /// Runs events for `d` of virtual time from now.
  std::size_t run_for(Duration d) { return run_until(now_ + d); }

  /// Fires the single earliest pending event, if any. Returns whether an
  /// event fired.
  bool step();

  /// Number of pending (scheduled, not yet fired or cancelled) events.
  std::size_t pending() const { return heap_.size(); }

  bool idle() const { return heap_.empty(); }

 private:
  static constexpr std::uint32_t kFree = UINT32_MAX;

  struct Key {
    Time when;
    std::uint64_t seq;  // schedule order: earlier-scheduled wins a tie
    std::uint32_t slot;
    bool before(const Key& o) const {
      return when != o.when ? when < o.when : seq < o.seq;
    }
  };
  struct Slot {
    std::function<void()> fn;
    std::uint32_t pos = kFree;  // index of this slot's key in heap_
    std::uint32_t gen = 0;      // bumped on release; tags the slot's ids
  };

  // Heap upkeep: every move of a key also updates its slot's `pos`.
  void place(std::size_t pos, const Key& key);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void erase_at(std::size_t pos);
  // Frees `slot` for reuse, staling its ids, and hands back its callback.
  std::function<void()> release(std::uint32_t slot);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace tiamat::sim
