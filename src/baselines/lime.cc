#include "baselines/lime.h"

#include <algorithm>

namespace tiamat::baselines {

LimeHost::LimeHost(transport::Transport& net, transport::GroupId federation, bool first,
                   transport::NodeOptions pos)
    : net_(net), endpoint_(net, net.add_node(pos)),
      timers_(net.timers(endpoint_.node())), group_(federation) {
  auto handler = [this](transport::NodeId from, const net::Message& m) {
    handle(from, m);
  };
  for (std::uint16_t t = net::kLimeBase + 1; t <= net::kLimeBase + 10; ++t) {
    endpoint_.on(t, handler);
  }
  if (first) {
    endpoint_.join_group(group_);
    engaged_ = true;
    members_.insert(node());
  }
}

transport::NodeId LimeHost::coordinator() const {
  if (members_.empty()) return node();
  return *members_.begin();  // lowest node id
}

// ---- Engagement -----------------------------------------------------------------

void LimeHost::engage(std::function<void(bool)> done) {
  if (engaged_) {
    if (done) done(true);
    return;
  }
  join_done_ = std::move(done);
  joining_ = true;
  pause_started_ = net_.now();
  endpoint_.join_group(group_);
  net::Message m;
  m.type = kLimeJoinReq;
  m.origin = node();
  endpoint_.multicast(group_, m);
  // Retry until some coordinator lets us in (it may be mid-engagement).
  engage_timeout_ = timers_.schedule_after(transport::seconds(1), [this] {
    engage_timeout_ = transport::kInvalidEvent;
    if (joining_) {
      joining_ = false;
      engage(std::move(join_done_));
    }
  });
}

void LimeHost::begin_engagement(transport::NodeId newcomer) {
  if (pausing_) return;  // barrier already running; newcomer will retry
  ++stats_.engagements;
  pausing_ = true;
  pause_started_ = net_.now();
  pending_newcomer_ = newcomer;
  pause_acks_pending_.clear();
  for (transport::NodeId m : members_) {
    if (m == node()) continue;
    pause_acks_pending_.insert(m);
    net::Message p;
    p.type = kLimePause;
    p.origin = node();
    p.h(static_cast<std::int64_t>(newcomer));
    endpoint_.send(m, p);
  }
  if (pause_acks_pending_.empty()) {
    finish_engagement();
  } else {
    // Expel silent members rather than deadlock.
    timers_.schedule_after(ack_timeout, [this, newcomer] {
      if (pausing_ && pending_newcomer_ == newcomer &&
          !pause_acks_pending_.empty()) {
        for (transport::NodeId dead : pause_acks_pending_) members_.erase(dead);
        pause_acks_pending_.clear();
        finish_engagement();
      }
    });
  }
}

void LimeHost::finish_engagement() {
  // Full state transfer to the newcomer (atomic engagement's big cost).
  replica_.for_each([&](tuples::TupleId key, const Tuple& t) {
    net::Message s;
    s.type = kLimeState;
    s.origin = node();
    s.h(static_cast<std::int64_t>(key));
    s.tuple = t;
    endpoint_.send(pending_newcomer_, s);
    ++stats_.state_tuples_sent;
  });
  members_.insert(pending_newcomer_);
  ++epoch_;
  net::Message end;
  end.type = kLimeEngageEnd;
  end.origin = node();
  for (transport::NodeId m : members_) end.h(static_cast<std::int64_t>(m));
  endpoint_.multicast(group_, end);
  // Apply locally too (multicast skips the sender).
  stats_.total_engagement_stall += net_.now() - pause_started_;
  pausing_ = false;
  pending_newcomer_ = 0;
  flush_queue();
}

void LimeHost::disengage() {
  if (!engaged_) return;
  net::Message m;
  m.type = kLimeLeave;
  m.origin = node();
  endpoint_.multicast(group_, m);
  endpoint_.leave_group(group_);
  engaged_ = false;
  members_.clear();
  replica_ = tuples::TupleIndex{};
}

// ---- Operations (originator side) ----------------------------------------------------

std::optional<Tuple> LimeHost::local_match(const Pattern& p) const {
  auto key = replica_.find_first(p);
  if (!key) return std::nullopt;
  return *replica_.get(*key);
}

void LimeHost::replica_put(std::uint64_t key, const Tuple& t) {
  // Replays (state transfer after re-engagement, duplicated applies) may
  // re-send a key the replica already holds; last write wins, as it did
  // when the replica was a plain map.
  replica_.erase(key);
  replica_.insert(key, t);
}

void LimeHost::out(Tuple t, std::function<void(bool)> done) {
  PendingOp op;
  op.is_out = true;
  op.tuple = std::move(t);
  op.out_done = std::move(done);
  submit(std::move(op));
}

void LimeHost::rdp(const Pattern& p, MatchCb cb) {
  PendingOp op;
  op.pattern = p;
  op.cb = std::move(cb);
  submit(std::move(op));
}

void LimeHost::inp(const Pattern& p, MatchCb cb) {
  PendingOp op;
  op.destructive = true;
  op.pattern = p;
  op.cb = std::move(cb);
  submit(std::move(op));
}

void LimeHost::submit(PendingOp op) {
  if (!engaged_ && !joining_) {
    ++stats_.ops_failed;
    if (op.is_out) {
      if (op.out_done) op.out_done(false);
    } else if (op.cb) {
      op.cb(std::nullopt);
    }
    return;
  }
  if (pausing_ || joining_) {
    // "Other operations cannot proceed while hosts are engaging."
    ++stats_.ops_stalled_by_engagement;
    queued_.push_back(std::move(op));
    return;
  }
  if (!op.is_out && !op.destructive) {
    // rdp: the replica is consistent; answer locally.
    ++stats_.ops_completed;
    op.cb(local_match(*op.pattern));
    return;
  }
  op.id = next_op_++;
  net::Message m;
  m.type = kLimeOpFwd;
  m.op_id = op.id;
  m.origin = node();
  m.h(op.is_out);
  if (op.is_out) {
    m.tuple = op.tuple;
  } else {
    m.pattern = *op.pattern;
  }
  const transport::NodeId coord = coordinator();
  in_flight_.emplace(op.id, std::move(op));
  if (coord == node()) {
    coord_sequence(node(), m);
  } else {
    endpoint_.send(coord, m);
  }
  // Originator-side failure timeout (coordinator loss).
  const std::uint64_t op_id = m.op_id;
  timers_.schedule_after(ack_timeout * 3, [this, op_id] {
    auto it = in_flight_.find(op_id);
    if (it == in_flight_.end()) return;
    PendingOp failed = std::move(it->second);
    in_flight_.erase(it);
    ++stats_.ops_failed;
    if (failed.is_out) {
      if (failed.out_done) failed.out_done(false);
    } else if (failed.cb) {
      failed.cb(std::nullopt);
    }
  });
}

void LimeHost::flush_queue() {
  auto q = std::move(queued_);
  queued_.clear();
  for (auto& op : q) submit(std::move(op));
}

// ---- Coordinator side ------------------------------------------------------------------

void LimeHost::coord_sequence(transport::NodeId origin, const net::Message& m) {
  const auto is_out = m.read<bool>();  // an out carries its tuple, else a pattern
  if (!is_out || !(std::get<0>(*is_out) ? m.tuple.has_value()
                                        : m.pattern.has_value())) {
    endpoint_.drop_malformed(origin);
    return;
  }
  CoordOp c;
  c.seq = next_seq_++;
  c.origin = origin;
  c.origin_op = m.op_id;
  c.is_out = std::get<0>(*is_out);

  net::Message apply;
  apply.type = kLimeApply;
  apply.op_id = c.seq;
  apply.origin = node();

  if (c.is_out) {
    c.tuple = *m.tuple;
    c.found = true;
    const std::uint64_t key = (static_cast<std::uint64_t>(origin) << 40) ^
                              c.seq;
    c.victim = key;
    apply.h(true);
    apply.h(static_cast<std::int64_t>(key));
    apply.tuple = c.tuple;
    replica_put(key, c.tuple);
    serve_waiters_on_insert(c.tuple);
  } else {
    // Pick the victim here so every member removes the *same* tuple. The
    // engine yields the first match in ascending key order — the same
    // tuple the old whole-replica scan chose.
    std::uint64_t victim = 0;
    if (auto key = replica_.find_first(*m.pattern)) {
      victim = *key;
      c.tuple = *replica_.get(*key);
    }
    if (victim == 0) {
      // No match federation-wide (replica is authoritative).
      net::Message res;
      res.type = kLimeOpResult;
      res.op_id = c.origin_op;
      res.origin = node();
      res.h(false);
      if (origin == node()) {
        handle(node(), res);
      } else {
        endpoint_.send(origin, res);
      }
      return;
    }
    c.victim = victim;
    c.found = true;
    apply.h(false);
    apply.h(static_cast<std::int64_t>(victim));
    replica_.erase(victim);
  }

  for (transport::NodeId member : members_) {
    if (member == node()) continue;
    c.awaiting.insert(member);
    endpoint_.send(member, apply);
  }
  const std::uint64_t seq = c.seq;
  if (!c.awaiting.empty()) {
    c.timeout = timers_.schedule_after(ack_timeout, [this, seq] {
      auto it = coord_ops_.find(seq);
      if (it == coord_ops_.end()) return;
      // Expel silent members and finish.
      for (transport::NodeId dead : it->second.awaiting) members_.erase(dead);
      it->second.awaiting.clear();
      ++epoch_;
      coord_maybe_finish(seq);
    });
  }
  coord_ops_.emplace(seq, std::move(c));
  coord_maybe_finish(seq);
}

void LimeHost::coord_maybe_finish(std::uint64_t seq) {
  auto it = coord_ops_.find(seq);
  if (it == coord_ops_.end() || !it->second.awaiting.empty()) return;
  CoordOp c = std::move(it->second);
  coord_ops_.erase(it);
  if (c.timeout != transport::kInvalidEvent) timers_.cancel(c.timeout);
  net::Message res;
  res.type = kLimeOpResult;
  res.op_id = c.origin_op;
  res.origin = node();
  res.h(c.found);
  if (c.found && !c.is_out) res.tuple = c.tuple;
  if (c.origin == node()) {
    handle(node(), res);
  } else {
    endpoint_.send(c.origin, res);
  }
}

// ---- Member side ---------------------------------------------------------------------------

bool LimeHost::apply(const net::Message& m) {
  const auto h = m.read<bool, std::int64_t>();  // (is_out, key)
  if (!h || (std::get<0>(*h) && !m.tuple)) return false;
  const auto [is_out, key] = *h;
  if (is_out) {
    replica_put(static_cast<std::uint64_t>(key), *m.tuple);
    serve_waiters_on_insert(*m.tuple);
  } else {
    replica_.erase(static_cast<std::uint64_t>(key));
  }
  return true;
}

// ---- Blocking waiters -------------------------------------------------------------------------

void LimeHost::rd(const Pattern& p, transport::Time deadline, MatchCb cb) {
  if (auto t = local_match(p)) {
    cb(t);
    return;
  }
  if (deadline <= net_.now()) {
    cb(std::nullopt);
    return;
  }
  const std::uint64_t wid = next_waiter_++;
  Waiter w;
  w.destructive = false;
  w.deadline = deadline;
  w.cb = std::move(cb);
  w.deadline_event = timers_.schedule_at(deadline, [this, wid] {
    if (auto e = waiters_.extract(wid)) e->payload.cb(std::nullopt);
  });
  waiters_.add(wid, tuples::CompiledPattern(p), std::move(w));
}

void LimeHost::in(const Pattern& p, transport::Time deadline, MatchCb cb) {
  // Optimistic: try a coordinated take; if the federation has no match,
  // wait for an insert and retry.
  inp(p, [this, p, deadline, cb](std::optional<Tuple> t) {
    if (t) {
      cb(t);
      return;
    }
    if (deadline <= net_.now()) {
      cb(std::nullopt);
      return;
    }
    const std::uint64_t wid = next_waiter_++;
    Waiter w;
    w.destructive = true;
    w.deadline = deadline;
    w.cb = cb;
    w.deadline_event = timers_.schedule_at(deadline, [this, wid] {
      if (auto e = waiters_.extract(wid)) e->payload.cb(std::nullopt);
    });
    waiters_.add(wid, tuples::CompiledPattern(p), std::move(w));
  });
}

void LimeHost::serve_waiters_on_insert(const Tuple& t) {
  // Non-destructive waiters get copies; destructive waiters re-run their
  // coordinated take (they may lose the race and re-arm). The waiter index
  // yields candidates oldest-first from the tuple's bucket plus the
  // unkeyed overflow.
  std::vector<std::uint64_t> retries;
  for (std::uint64_t wid : waiters_.candidates(t)) {
    const tuples::CompiledPattern* cp = waiters_.pattern_of(wid);
    if (cp == nullptr || !cp->matches(t)) continue;
    if (waiters_.payload(wid)->destructive) {
      retries.push_back(wid);
      continue;
    }
    auto e = waiters_.extract(wid);
    if (e->payload.deadline_event != transport::kInvalidEvent) {
      timers_.cancel(e->payload.deadline_event);
    }
    e->payload.cb(t);
  }
  for (std::uint64_t wid : retries) waiter_retry_in(wid);
}

void LimeHost::waiter_retry_in(std::uint64_t waiter_id) {
  auto e = waiters_.extract(waiter_id);
  if (!e) return;
  if (e->payload.deadline_event != transport::kInvalidEvent) {
    timers_.cancel(e->payload.deadline_event);
  }
  // Re-runs the coordinated take.
  in(e->pattern.pattern(), e->payload.deadline, std::move(e->payload.cb));
}

// ---- Dispatch ------------------------------------------------------------------------------------

void LimeHost::handle(transport::NodeId from, const net::Message& m) {
  switch (m.type) {
    case kLimeJoinReq:
      if (engaged_ && is_coordinator()) begin_engagement(m.origin);
      return;
    case kLimePause: {
      if (!engaged_) return;
      if (!pausing_) {
        pausing_ = true;
        pause_started_ = net_.now();
      }
      net::Message ack;
      ack.type = kLimePauseAck;
      ack.origin = node();
      endpoint_.send(from, ack);
      return;
    }
    case kLimePauseAck: {
      pause_acks_pending_.erase(from);
      if (pausing_ && pending_newcomer_ != 0 && pause_acks_pending_.empty()) {
        finish_engagement();
      }
      return;
    }
    case kLimeState: {
      const auto key = m.read<std::int64_t>();
      if (!key || !m.tuple) {
        endpoint_.drop_malformed(from);
        return;
      }
      replica_put(static_cast<std::uint64_t>(std::get<0>(*key)), *m.tuple);
      serve_waiters_on_insert(*m.tuple);
      return;
    }
    case kLimeEngageEnd: {
      // The new member list: one int header per member, any count.
      std::set<transport::NodeId> members;
      for (const auto& h : m.headers) {
        const auto* id = h.get_if<std::int64_t>();
        if (id == nullptr) {
          endpoint_.drop_malformed(from);
          return;
        }
        members.insert(static_cast<transport::NodeId>(*id));
      }
      members_ = std::move(members);
      ++epoch_;
      if (joining_ && members_.contains(node())) {
        joining_ = false;
        engaged_ = true;
        if (engage_timeout_ != transport::kInvalidEvent) {
          timers_.cancel(engage_timeout_);
          engage_timeout_ = transport::kInvalidEvent;
        }
        stats_.total_engagement_stall += net_.now() - pause_started_;
        if (join_done_) {
          auto d = std::move(join_done_);
          join_done_ = nullptr;
          d(true);
        }
      }
      if (pausing_) {
        pausing_ = false;
        stats_.total_engagement_stall += net_.now() - pause_started_;
      }
      flush_queue();
      return;
    }
    case kLimeLeave: {
      members_.erase(m.origin);
      ++epoch_;
      return;
    }
    case kLimeOpFwd:
      if (engaged_ && is_coordinator()) coord_sequence(m.origin, m);
      return;
    case kLimeApply: {
      if (!apply(m)) {
        endpoint_.drop_malformed(from);
        return;
      }
      net::Message ack;
      ack.type = kLimeApplyAck;
      ack.op_id = m.op_id;
      ack.origin = node();
      if (from == node()) return;
      endpoint_.send(from, ack);
      return;
    }
    case kLimeApplyAck: {
      auto it = coord_ops_.find(m.op_id);
      if (it == coord_ops_.end()) return;
      it->second.awaiting.erase(m.origin);
      coord_maybe_finish(m.op_id);
      return;
    }
    case kLimeOpResult: {
      const auto h = m.read<bool>();
      if (!h) {
        endpoint_.drop_malformed(from);
        return;
      }
      const auto [found] = *h;
      auto it = in_flight_.find(m.op_id);
      if (it == in_flight_.end()) return;
      PendingOp op = std::move(it->second);
      in_flight_.erase(it);
      ++stats_.ops_completed;
      if (op.is_out) {
        if (op.out_done) op.out_done(found);
      } else if (op.cb) {
        if (found && m.tuple) {
          op.cb(*m.tuple);
        } else {
          op.cb(std::nullopt);
        }
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace tiamat::baselines
