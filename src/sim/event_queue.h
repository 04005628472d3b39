// Deterministic discrete-event queue.
//
// Events scheduled for the same instant fire in scheduling order, so a run
// never depends on container iteration order or any other incidental source
// of nondeterminism.

#pragma once

#include <cstdint>
#include <functional>

#include "sim/clock.h"
#include "transport/timer.h"
#include "transport/timer_heap.h"

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
/// It is a virtual clock plus a transport::TimerHeap of callbacks (the same
/// indexed heap every loopback worker inbox uses): ties on time break in
/// schedule order, `cancel` takes the event out of the heap in O(log n) and
/// destroys its callback (and whatever the closure captured) before it
/// returns, and an EventId is a generation-tagged slot handle, so a fired,
/// cancelled or reused-slot id is rejected and no id is ever kInvalidEvent.
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
  std::size_t pending() const { return events_.size(); }

  bool idle() const { return events_.empty(); }

 private:
  Time now_ = 0;
  transport::TimerHeap<std::function<void()>> events_;
};

}  // namespace tiamat::sim
