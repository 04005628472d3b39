#include "sim/event_queue.h"

#include <utility>

namespace tiamat::sim {

EventId EventQueue::schedule_at(Time when, std::function<void()> fn) {
  return events_.push(when < now_ ? now_ : when, std::move(fn));
}

bool EventQueue::cancel(EventId id) {
  // The callback is destroyed at the end of this statement, with the queue
  // already consistent: a capture's destructor may re-enter it.
  return events_.cancel(id).has_value();
}

bool EventQueue::step() {
  if (events_.empty()) return false;
  now_ = events_.next_due();
  // Popped before it runs: the callback may schedule (reusing this slot) or
  // cancel its own, now stale, id.
  std::function<void()> fn = events_.pop();
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
  while (!events_.empty() && events_.next_due() <= deadline) {
    step();
    ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

}  // namespace tiamat::sim
