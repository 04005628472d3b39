#include "space/eval.h"

namespace tiamat::space {

transport::Duration ActiveTuple::total_cost() const {
  transport::Duration total = 0;
  for (const auto& slot : slots_) {
    if (const auto* c = std::get_if<Computation>(&slot)) total += c->cost;
  }
  return total;
}

tuples::Tuple ActiveTuple::materialise() const {
  std::vector<tuples::Value> fields;
  fields.reserve(slots_.size());
  for (const auto& slot : slots_) {
    if (const auto* v = std::get_if<tuples::Value>(&slot)) {
      fields.push_back(*v);
    } else {
      fields.push_back(std::get<Computation>(slot).fn());
    }
  }
  return tuples::Tuple(std::move(fields));
}

EvalEngine::EvalEngine(transport::TimerService& queue, LocalTupleSpace& target)
    : queue_(queue), target_(target) {}

EvalEngine::~EvalEngine() {
  for (auto& [id, r] : running_) {
    (void)id;
    if (r.completion != transport::kInvalidEvent) queue_.cancel(r.completion);
    if (r.halt_event != transport::kInvalidEvent) queue_.cancel(r.halt_event);
  }
}

EvalId EvalEngine::submit(ActiveTuple at, transport::Time halt_by,
                          transport::Time tuple_expiry) {
  const transport::Duration cost = at.total_cost();
  return submit_fn(
      [at = std::move(at)] { return at.materialise(); }, cost, halt_by,
      tuple_expiry);
}

EvalId EvalEngine::submit_fn(std::function<tuples::Tuple()> fn,
                             transport::Duration cost, transport::Time halt_by,
                             transport::Time tuple_expiry) {
  EvalId id = next_id_++;
  Running r;
  r.tuple_expiry = tuple_expiry;
  r.job = std::move(fn);
  const transport::Time done_at = queue_.now() + cost;
  if (halt_by != transport::kNever && halt_by <= done_at) {
    // The lease will lapse before the computation finishes; schedule the
    // halt. (We still "run" until then — the effort is spent, the tuple
    // never appears.)
    r.halt_event = queue_.schedule_at(halt_by, [this, id] { halt(id); });
  } else {
    r.completion = queue_.schedule_at(done_at, [this, id] { complete(id); });
  }
  running_.emplace(id, std::move(r));
  return id;
}

void EvalEngine::complete(EvalId id) {
  auto it = running_.find(id);
  if (it == running_.end()) return;
  Running r = std::move(it->second);
  running_.erase(it);
  if (r.halt_event != transport::kInvalidEvent) queue_.cancel(r.halt_event);
  ++stats_.completed;
  target_.out(r.job(), r.tuple_expiry);
}

bool EvalEngine::halt(EvalId id) {
  auto it = running_.find(id);
  if (it == running_.end()) return false;
  Running r = std::move(it->second);
  running_.erase(it);
  if (r.completion != transport::kInvalidEvent) queue_.cancel(r.completion);
  if (r.halt_event != transport::kInvalidEvent) queue_.cancel(r.halt_event);
  ++stats_.halted;
  return true;
}

}  // namespace tiamat::space
