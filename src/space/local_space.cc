#include "space/local_space.h"

#include <algorithm>

#if TIAMAT_AUDIT_ENABLED
#include <sstream>
#endif

namespace tiamat::space {

#if TIAMAT_AUDIT_ENABLED
void LocalTupleSpace::audit_check(const char* checkpoint) const {
  index_.audit_check(checkpoint);
  waiters_.audit_check(checkpoint);
  auto trap = [&](const std::string& invariant, const std::string& detail) {
    std::ostringstream os;
    os << detail << " | stored " << index_.size() << ", tentative "
       << tentative_.size() << ", waiters " << waiters_.size();
    audit::fail("LocalTupleSpace", checkpoint, invariant, os.str());
  };
  for (const auto& [id, expiry] : expiries_) {
    (void)expiry;
    if (!index_.contains(id)) {
      std::ostringstream os;
      os << "expiry recorded for id " << id << " which is not stored";
      trap("expiry-bookkeeping", os.str());
      return;
    }
  }
  for (const auto& [id, ev] : expiry_events_) {
    (void)ev;
    if (!expiries_.contains(id)) {
      std::ostringstream os;
      os << "expiry timer armed for id " << id << " with no expiry on file";
      trap("expiry-bookkeeping", os.str());
      return;
    }
  }
  std::size_t parked_bytes = 0;
  for (const auto& [id, t] : tentative_) {
    parked_bytes += t.footprint();
    if (index_.contains(id)) {
      std::ostringstream os;
      os << "tentative id " << id << " still visible in the index";
      trap("tentative-visibility", os.str());
      return;
    }
    if (id >= next_tuple_id_) {
      std::ostringstream os;
      os << "tentative id " << id << " >= next id " << next_tuple_id_;
      trap("id-allocation", os.str());
      return;
    }
  }
  if (parked_bytes != tentative_bytes_) {
    std::ostringstream os;
    os << "tentative_bytes_ " << tentative_bytes_ << " != parked footprints "
       << parked_bytes;
    trap("memory-accounting", os.str());
    return;
  }
  for (const auto& [id, expiry] : tentative_expiry_) {
    (void)expiry;
    if (!tentative_.contains(id)) {
      std::ostringstream os;
      os << "parked expiry for id " << id << " which is not tentative";
      trap("tentative-visibility", os.str());
      return;
    }
  }
  index_.for_each([&](TupleId id, const Tuple&) {
    if (id >= next_tuple_id_) {
      std::ostringstream os;
      os << "stored id " << id << " >= next id " << next_tuple_id_;
      trap("id-allocation", os.str());
    }
  });
}
#endif  // TIAMAT_AUDIT_ENABLED

LocalTupleSpace::LocalTupleSpace(transport::TimerService& queue, transport::Rng& rng,
                                 Options opts)
    : queue_(queue), rng_(rng), opts_(std::move(opts)) {}

LocalTupleSpace::~LocalTupleSpace() {
  // Cancel outstanding timers so no event fires into a dead object.
  for (auto& [id, ev] : expiry_events_) {
    (void)id;
    queue_.cancel(ev);
  }
  waiters_.for_each([this](WaiterId, Waiter& w) {
    if (w.deadline_event != transport::kInvalidEvent) queue_.cancel(w.deadline_event);
  });
}

// ---- out ------------------------------------------------------------------

TupleId LocalTupleSpace::out(Tuple t, transport::Time expiry) {
  ++stats_.outs;
  if (expiry != transport::kNever && expiry <= queue_.now()) {
    // Lease already expired: the tuple may be reclaimed at any time — and
    // "any time" includes immediately.
    ++stats_.tuples_expired;
    return tuples::kNoTuple;
  }
  TupleId id = next_tuple_id_++;
  if (offer_to_waiters(id, t)) {
    // A destructive waiter consumed the tuple before it hit storage.
    TIAMAT_AUDIT_CHECK(audit_check("out"));
    return tuples::kNoTuple;
  }
  index_.insert(id, std::move(t));
  if (expiry != transport::kNever) {
    expiries_[id] = expiry;
    schedule_tuple_expiry(id, expiry);
  }
  TIAMAT_AUDIT_CHECK(audit_check("out"));
  return id;
}

// ---- Selection & non-blocking ops ------------------------------------------

std::optional<TupleId> LocalTupleSpace::select_match(
    const tuples::CompiledPattern& p) {
  auto ids = index_.find_matches(p);
  if (ids.empty()) return std::nullopt;
  return ids[rng_.index(ids.size())];
}

std::optional<Tuple> LocalTupleSpace::rdp(const tuples::CompiledPattern& p) {
  ++stats_.reads;
  auto id = select_match(p);
  if (!id) return std::nullopt;
  ++stats_.hits;
  return *index_.get(*id);
}

std::optional<Tuple> LocalTupleSpace::inp(const tuples::CompiledPattern& p) {
  ++stats_.takes;
  auto id = select_match(p);
  if (!id) return std::nullopt;
  ++stats_.hits;
  drop_tuple_timer(*id);
  expiries_.erase(*id);
  auto t = index_.erase(*id);
  TIAMAT_AUDIT_CHECK(audit_check("inp"));
  return t;
}

// ---- Blocking ops -----------------------------------------------------------

WaiterId LocalTupleSpace::rd(const Pattern& p, transport::Time deadline,
                             MatchCallback cb) {
  ++stats_.reads;
  tuples::CompiledPattern cp(p);
  if (auto id = select_match(cp)) {
    ++stats_.hits;
    cb(*index_.get(*id));
    return kNoWaiter;
  }
  if (deadline <= queue_.now()) {
    ++stats_.waiter_timed_out;
    cb(std::nullopt);
    return kNoWaiter;
  }
  Waiter w;
  w.destructive = false;
  w.tentative = false;
  w.deadline = deadline;
  w.cb = std::move(cb);
  return add_waiter(std::move(cp), std::move(w));
}

WaiterId LocalTupleSpace::in(const Pattern& p, transport::Time deadline,
                             MatchCallback cb) {
  ++stats_.takes;
  tuples::CompiledPattern cp(p);
  if (auto id = select_match(cp)) {
    ++stats_.hits;
    drop_tuple_timer(*id);
    expiries_.erase(*id);
    cb(index_.erase(*id));
    return kNoWaiter;
  }
  if (deadline <= queue_.now()) {
    ++stats_.waiter_timed_out;
    cb(std::nullopt);
    return kNoWaiter;
  }
  Waiter w;
  w.destructive = true;
  w.tentative = false;
  w.deadline = deadline;
  w.cb = std::move(cb);
  return add_waiter(std::move(cp), std::move(w));
}

bool LocalTupleSpace::cancel_waiter(WaiterId id) {
  auto e = waiters_.extract(id);
  if (!e) return false;
  if (e->payload.deadline_event != transport::kInvalidEvent) {
    queue_.cancel(e->payload.deadline_event);
  }
  TIAMAT_AUDIT_CHECK(audit_check("cancel_waiter"));
  return true;
}

WaiterId LocalTupleSpace::add_waiter(tuples::CompiledPattern p, Waiter w) {
  const WaiterId id = next_waiter_id_++;
  if (w.deadline != transport::kNever) {
    w.deadline_event = queue_.schedule_at(
        w.deadline, [this, id] { waiter_deadline(id); });
  }
  waiters_.add(id, std::move(p), std::move(w));
  TIAMAT_AUDIT_CHECK(audit_check("add_waiter"));
  return id;
}

void LocalTupleSpace::waiter_deadline(WaiterId id) {
  auto e = waiters_.extract(id);
  if (!e) return;
  Waiter w = std::move(e->payload);
  ++stats_.waiter_timed_out;
  // "Once the lease expires ... assuming no match has already been
  // found, return nothing." (§2.5)
  if (w.tentative) {
    if (w.tcb) w.tcb(std::nullopt);
  } else if (w.cb) {
    w.cb(std::nullopt);
  }
}

bool LocalTupleSpace::offer_to_waiters(TupleId id, const Tuple& t) {
  // All matching non-destructive waiters are satisfied with copies; then
  // the oldest matching destructive waiter (if any) consumes the tuple.
  // Callbacks may re-enter the space (e.g. a proxy loop immediately issuing
  // its next `in`), so collect first, call after mutation is settled. The
  // waiter index yields candidates oldest-first from the tuple's bucket
  // plus the unkeyed overflow; no waiter outside that list can match.
  std::vector<Waiter> fired_readers;
  std::optional<Waiter> taker;
  for (WaiterId wid : waiters_.candidates(t)) {
    const tuples::CompiledPattern* cp = waiters_.pattern_of(wid);
    if (cp == nullptr || !cp->matches(t)) continue;
    if (taker && waiters_.payload(wid)->destructive) continue;
    auto e = waiters_.extract(wid);
    if (e->payload.deadline_event != transport::kInvalidEvent) {
      queue_.cancel(e->payload.deadline_event);
    }
    if (e->payload.destructive) {
      taker = std::move(e->payload);
    } else {
      fired_readers.push_back(std::move(e->payload));
    }
  }

  stats_.waiter_satisfied += fired_readers.size() + (taker ? 1 : 0);

  bool consumed = false;
  if (taker) {
    if (taker->tentative) {
      // The tuple is consumed from the visible space but parked as
      // tentative so a remote loser can put it back.
      tentative_bytes_ += t.footprint();
      tentative_.emplace(id, t);
      if (taker->tcb) taker->tcb(std::make_pair(id, t));
    } else {
      if (taker->cb) taker->cb(t);
    }
    consumed = true;
  }
  for (auto& r : fired_readers) {
    if (r.cb) r.cb(t);
  }
  return consumed;
}

// ---- Tentative removal -------------------------------------------------------

std::optional<std::pair<TupleId, Tuple>> LocalTupleSpace::take_tentative(
    const tuples::CompiledPattern& p) {
  ++stats_.takes;
  auto id = select_match(p);
  if (!id) return std::nullopt;
  ++stats_.hits;
  // Keep the expiry on file: a released tuple resumes its old lease.
  auto expiry_it = expiries_.find(*id);
  if (expiry_it != expiries_.end()) {
    tentative_expiry_[*id] = expiry_it->second;
    expiries_.erase(expiry_it);
  }
  drop_tuple_timer(*id);
  auto t = index_.erase(*id);
  tentative_bytes_ += t->footprint();
  tentative_.emplace(*id, *t);
  TIAMAT_AUDIT_CHECK(audit_check("take_tentative"));
  return std::make_pair(*id, *t);
}

WaiterId LocalTupleSpace::take_tentative_blocking(
    const tuples::CompiledPattern& p, transport::Time deadline,
    std::function<void(std::optional<std::pair<TupleId, Tuple>>)> cb) {
  if (auto taken = take_tentative(p)) {
    cb(taken);
    return kNoWaiter;
  }
  if (deadline <= queue_.now()) {
    ++stats_.waiter_timed_out;
    cb(std::nullopt);
    return kNoWaiter;
  }
  Waiter w;
  w.destructive = true;
  w.tentative = true;
  w.deadline = deadline;
  w.tcb = std::move(cb);
  return add_waiter(p, std::move(w));
}

bool LocalTupleSpace::release_tentative(TupleId id) {
  auto it = tentative_.find(id);
  if (it == tentative_.end()) return false;
  Tuple t = std::move(it->second);
  tentative_.erase(it);
  tentative_bytes_ -= t.footprint();
  ++stats_.tentative_released;

  transport::Time expiry = transport::kNever;
  auto eit = tentative_expiry_.find(id);
  if (eit != tentative_expiry_.end()) {
    expiry = eit->second;
    tentative_expiry_.erase(eit);
  }
  if (expiry != transport::kNever && expiry <= queue_.now()) {
    ++stats_.tuples_expired;
    return true;  // released, but its lease lapsed meanwhile: reclaim now
  }
  if (offer_to_waiters(id, t)) {
    TIAMAT_AUDIT_CHECK(audit_check("release_tentative"));
    return true;
  }
  index_.insert(id, std::move(t));
  if (expiry != transport::kNever) {
    expiries_[id] = expiry;
    schedule_tuple_expiry(id, expiry);
  }
  TIAMAT_AUDIT_CHECK(audit_check("release_tentative"));
  return true;
}

bool LocalTupleSpace::confirm_tentative(TupleId id) {
  auto it = tentative_.find(id);
  if (it == tentative_.end()) return false;
  tentative_bytes_ -= it->second.footprint();
  tentative_.erase(it);
  tentative_expiry_.erase(id);
  ++stats_.tentative_confirmed;
  TIAMAT_AUDIT_CHECK(audit_check("confirm_tentative"));
  return true;
}

// ---- Expiry ---------------------------------------------------------------------

void LocalTupleSpace::schedule_tuple_expiry(TupleId id, transport::Time expiry) {
  expiry_events_[id] = queue_.schedule_at(expiry, [this, id] {
    expiry_events_.erase(id);
    if (index_.contains(id)) {
      index_.erase(id);
      expiries_.erase(id);
      ++stats_.tuples_expired;
    }
    TIAMAT_AUDIT_CHECK(audit_check("expiry_timer"));
  });
}

void LocalTupleSpace::drop_tuple_timer(TupleId id) {
  auto it = expiry_events_.find(id);
  if (it != expiry_events_.end()) {
    queue_.cancel(it->second);
    expiry_events_.erase(it);
  }
}

void LocalTupleSpace::purge_expired() {
  const transport::Time now = queue_.now();
  std::vector<TupleId> doomed;
  for (const auto& [id, expiry] : expiries_) {
    if (expiry <= now) doomed.push_back(id);
  }
  for (TupleId id : doomed) {
    drop_tuple_timer(id);
    index_.erase(id);
    expiries_.erase(id);
    ++stats_.tuples_expired;
  }
  TIAMAT_AUDIT_CHECK(audit_check("purge_expired"));
}

bool LocalTupleSpace::reclaim(TupleId id) {
  if (index_.contains(id)) {
    drop_tuple_timer(id);
    expiries_.erase(id);
    index_.erase(id);
  } else if (auto it = tentative_.find(id); it != tentative_.end()) {
    // Parked by a tentative take: the hold may still end in a release,
    // which must then find nothing to put back.
    tentative_bytes_ -= it->second.footprint();
    tentative_.erase(it);
    tentative_expiry_.erase(id);
  } else {
    return false;
  }
  ++stats_.tuples_expired;
  TIAMAT_AUDIT_CHECK(audit_check("reclaim"));
  return true;
}

bool LocalTupleSpace::set_tuple_expiry(TupleId id, transport::Time expiry) {
  if (!index_.contains(id)) return false;
  drop_tuple_timer(id);
  if (expiry == transport::kNever) {
    expiries_.erase(id);
  } else {
    expiries_[id] = expiry;
    schedule_tuple_expiry(id, expiry);
  }
  TIAMAT_AUDIT_CHECK(audit_check("set_tuple_expiry"));
  return true;
}

// ---- Introspection ------------------------------------------------------------

std::vector<Tuple> LocalTupleSpace::snapshot() const {
  std::vector<Tuple> out;
  out.reserve(index_.size());
  index_.for_each([&](TupleId, const Tuple& t) { out.push_back(t); });
  return out;
}

std::vector<std::pair<Tuple, transport::Time>>
LocalTupleSpace::snapshot_with_expiry() const {
  std::vector<std::pair<Tuple, transport::Time>> out;
  out.reserve(index_.size());
  index_.for_each([&](TupleId id, const Tuple& t) {
    auto it = expiries_.find(id);
    out.emplace_back(t, it == expiries_.end() ? transport::kNever : it->second);
  });
  return out;
}

LocalTupleSpace::MemoryStats LocalTupleSpace::memory() const {
  MemoryStats m;
  m.tuple_count = index_.size();
  m.tuple_bytes = index_.approx_bytes();
  m.waiter_count = waiters_.size();
  m.waiter_bytes = waiters_.approx_bytes();
  m.tentative_count = tentative_.size();
  m.tentative_bytes = tentative_bytes_;
  return m;
}

void LocalTupleSpace::export_memory_gauges(obs::Registry& r) const {
  const MemoryStats m = memory();
  r.gauge("space.tuples").set(static_cast<double>(m.tuple_count));
  r.gauge("space.tuple_bytes").set(static_cast<double>(m.tuple_bytes));
  r.gauge("space.waiters").set(static_cast<double>(m.waiter_count));
  r.gauge("space.waiter_bytes").set(static_cast<double>(m.waiter_bytes));
  r.gauge("space.tentative").set(static_cast<double>(m.tentative_count));
  r.gauge("space.bytes").set(static_cast<double>(m.total_bytes()));
}

std::size_t LocalTupleSpace::count_matches(const Pattern& p) const {
  return index_.count_matches(p);
}

bool LocalTupleSpace::has_match(const tuples::CompiledPattern& p) const {
  return index_.find_first(p).has_value();
}

}  // namespace tiamat::space
