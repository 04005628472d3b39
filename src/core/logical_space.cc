// Originator side of the opportunistic logical tuple space (§2.2, §3.1.3).
//
// A logical-space operation runs this state machine:
//
//   agree lease terms ──refused──> fail (no work at all, Figure 2)
//        │
//   inp/rdp: search local space ──hit──> finish(local); the lease is
//        │ miss                          accounted, never materialised
//   grant lease (id, expiry timer, slab record) + open the op
//        │
//   rd/in: try local space ──hit──> finish(local)
//        │ miss: local waiter armed
//   contact responder list from the top, removing non-responders;
//   destructive matches are removed *tentatively* at the responder:
//   first response wins (kConfirm), everyone else is released (kRelease /
//   kCancelOp);
//        │ list exhausted & unsatisfied
//   multicast probe; new responders join the bottom of the list; continue;
//        │ still unsatisfied
//   non-blocking: return nothing.
//   blocking: hold a local waiter + remote waiters; optionally re-probe so
//   instances that become visible during the operation participate (§2.2 —
//   the "model" behaviour; the paper's prototype omitted it);
//   lease expiry ends everything and returns nothing (§2.5).

#include "core/instance.h"

#include <algorithm>

namespace tiamat::core {

namespace {
constexpr std::int64_t kNoDeadline = -1;

/// Re-probe period for blocking ops when propagate_to_late_arrivals.
constexpr transport::Duration kLateArrivalPoll = transport::milliseconds(250);

std::int64_t encode_deadline(transport::Time t) {
  return t == transport::kNever ? kNoDeadline : static_cast<std::int64_t>(t);
}
}  // namespace

Instance::LogicalOp* Instance::find_op(std::uint64_t op_id) {
  auto it = ops_.find(op_id);
  return it == ops_.end() ? nullptr : &it->second;
}

bool Instance::start_op(OpKind kind, const Pattern& p, ReadCallback cb,
                        const lease::LeaseRequester& requester) {
  ++monitor_.counters().ops_started;
  const std::uint64_t id = correlator_.next_op_id();
  trace(obs::EventKind::kOpIssued, node_, id, transport::kNoNode,
        static_cast<std::int64_t>(kind));
  auto terms = leases_.agree(requester);
  if (!terms) {
    // Figure 2: "If a lease is refused, no further work is carried out on
    // the operation."
    ++monitor_.counters().ops_lease_refused;
    trace(obs::EventKind::kLeaseRefused, node_, id);
    return false;
  }
  const transport::Time started_at = tx_.now();

  if (!is_blocking(kind)) {
    // A local hit ends the op, and so its lease, before this call returns:
    // the lease is accounted but never materialised (no record, no expiry
    // timer, no LogicalOp).
    const tuples::CompiledPattern cp(p);
    std::optional<Tuple> t =
        kind == OpKind::kInp ? space_.inp(cp) : space_.rdp(cp);
    if (t) {
      trace(obs::EventKind::kLeaseGranted, node_, id, transport::kNoNode,
            static_cast<std::int64_t>(leases_.grant_released()));
      ++monitor_.counters().satisfied_local;
      trace(obs::EventKind::kAccept, node_, id, node_);
      const transport::Duration took = tx_.now() - started_at;
      monitor_.op_finished(kind, took);
      if (adaptive_ != nullptr) {
        adaptive_->observe_match(took, terms->ttl.value_or(0));
      }
      if (cb) cb(ReadResult{std::move(*t), node_});
      return true;
    }
  }

  auto l = leases_.grant(*terms);
  trace(obs::EventKind::kLeaseGranted, node_, id, transport::kNoNode,
        static_cast<std::int64_t>(leases_.id(l)));

  LogicalOp& op = ops_[id];
  op.id = id;
  op.kind = kind;
  op.pattern = p;
  op.lease = l;
  op.cb = std::move(cb);
  op.started_at = started_at;
  leases_.set_owner(l, {lease::OwnerKind::kOp, id});

  if (is_blocking(kind)) op_try_local(op);
  // A synchronous local hit finishes the op and erases it from ops_,
  // invalidating `op` — re-find before touching it again.
  LogicalOp* live = find_op(id);
  if (live == nullptr || live->done) return true;

  // Route kOpResponse traffic for this op id. Lifetime is lease-driven, so
  // the correlator itself carries no deadline.
  correlator_.expect(id, [this, id](transport::NodeId from, const Message& m) {
    op_on_response(id, from, m);
    return ops_.contains(id);  // keep routing while the op is open
  });

  // Seed the contact queue from the responder list, top first (§3.1.3).
  live->contact_queue = cache_.contact_order();
  op_advance(id);
  return true;
}

bool Instance::op_at(OpKind kind, const space::SpaceHandle& dest,
                     const Pattern& p, ReadCallback cb,
                     const lease::LeaseRequester& requester) {
  if (dest.node == node_) {
    // Directed at ourselves: equivalent to a purely local operation, which
    // start_op counts.
    return start_op(kind, p, std::move(cb), requester);
  }
  ++monitor_.counters().ops_started;
  const std::uint64_t id = correlator_.next_op_id();
  trace(obs::EventKind::kOpIssued, node_, id, dest.node,
        static_cast<std::int64_t>(kind));
  auto l = leases_.negotiate(requester);
  if (!l) {
    ++monitor_.counters().ops_lease_refused;
    trace(obs::EventKind::kLeaseRefused, node_, id);
    return false;
  }
  trace(obs::EventKind::kLeaseGranted, node_, id, transport::kNoNode,
        static_cast<std::int64_t>(leases_.id(l)));
  LogicalOp& op = ops_[id];
  op.id = id;
  op.kind = kind;
  op.pattern = p;
  op.lease = l;
  op.cb = std::move(cb);
  op.started_at = tx_.now();
  op.directed = true;
  leases_.set_owner(l, {lease::OwnerKind::kOp, id});
  correlator_.expect(id, [this, id](transport::NodeId from, const Message& m) {
    op_on_response(id, from, m);
    return ops_.contains(id);
  });
  op.contact_queue.push_back(dest.node);
  op_advance(id);
  return true;
}

void Instance::op_try_local(LogicalOp& op) {
  // Register a deadline-less waiter; the lease governs its lifetime.
  const std::uint64_t id = op.id;
  auto on_match = [this, id](std::optional<Tuple> t) {
    if (!t) return;
    if (LogicalOp* o = find_op(id)) {
      o->local_waiter = space::kNoWaiter;
      op_finish(id, ReadResult{*t, node_});
    }
  };
  const space::WaiterId wid =
      op.kind == OpKind::kIn
          ? space_.in(op.pattern, transport::kNever, on_match)
          : space_.rd(op.pattern, transport::kNever, on_match);
  if (LogicalOp* o = find_op(id); o != nullptr && !o->done) {
    o->local_waiter = wid;
  }
}

void Instance::op_advance(std::uint64_t op_id) {
  LogicalOp* op = find_op(op_id);
  if (op == nullptr || op->done) return;

  // Contact the next responder(s). Non-blocking ops probe the list
  // sequentially (one outstanding contact); blocking ops arm a waiter at
  // every reachable instance at once.
  while (!op->contact_queue.empty()) {
    if (!is_blocking(op->kind) && !op->awaiting_first.empty()) return;

    transport::NodeId target = op->contact_queue.front();
    op->contact_queue.erase(op->contact_queue.begin());
    if (target == node_ || op->contacted.contains(target)) continue;

    if (!leases_.charge_contact(op->lease)) break;  // contact budget spent
    op_contact(*op, target);
    op = find_op(op_id);  // re-find: sends never reenter, but stay safe
    if (op == nullptr || op->done) return;
  }

  // Queue drained (or budget spent).
  if (!is_blocking(op->kind)) {
    op_maybe_conclude_nonblocking(*op);
    return;
  }

  // Blocking: if the whole reachable world is armed and the model asks for
  // late arrivals, keep re-probing on a timer. Directed ops never widen.
  if (op->directed) return;
  if (!op->probed_once && !op->probing &&
      leases_.contacts_remaining(op->lease)) {
    op_probe(op_id);
  } else if (cfg_.propagate_to_late_arrivals) {
    op_schedule_repoll(*op);
  }
}

void Instance::op_contact(LogicalOp& op, transport::NodeId target) {
  op.contacted.insert(target);
  op.awaiting_first.insert(target);

  Message m;
  m.type = net::kOpRequest;
  m.op_id = op.id;
  m.origin = node_;
  m.h(static_cast<std::int64_t>(op.kind));
  m.h(encode_deadline(leases_.expiry_time(op.lease)));
  m.pattern = op.pattern;
  endpoint_.send(target, m);
  trace(obs::EventKind::kPeerRequest, node_, op.id, target);

  const std::uint64_t id = op.id;
  op.ack_timers[target] = timers_.schedule_after(
      kResponseTimeout,
      [this, id, target] { op_ack_timeout(id, target); });
}

void Instance::op_probe(std::uint64_t op_id) {
  LogicalOp* op = find_op(op_id);
  if (op == nullptr || op->done || op->probing) return;
  op->probing = true;
  ++monitor_.counters().probes_triggered;
  trace(obs::EventKind::kProbe, node_, op_id);
  discovery_.probe(cfg_.probe_window, [this, op_id](std::size_t) {
    LogicalOp* o = find_op(op_id);
    if (o == nullptr || o->done) return;
    o->probing = false;
    o->probed_once = true;
    // Anyone in the refreshed list we have not tried yet joins the queue.
    for (transport::NodeId n : cache_.contact_order()) {
      if (n != node_ && !o->contacted.contains(n) &&
          std::find(o->contact_queue.begin(), o->contact_queue.end(), n) ==
              o->contact_queue.end()) {
        o->contact_queue.push_back(n);
      }
    }
    op_advance(op_id);
  });
}

void Instance::op_schedule_repoll(LogicalOp& op) {
  if (op.repoll_timer != transport::kInvalidEvent) return;
  const std::uint64_t id = op.id;
  op.repoll_timer =
      timers_.schedule_after(kLateArrivalPoll, [this, id] {
        LogicalOp* o = find_op(id);
        if (o == nullptr || o->done) return;
        o->repoll_timer = transport::kInvalidEvent;
        if (!leases_.contacts_remaining(o->lease)) {
          // Cannot contact anyone new; keep the armed waiters and stop
          // polling.
          return;
        }
        o->probed_once = false;  // allow another probe round
        op_probe(id);
        if (LogicalOp* o2 = find_op(id); o2 != nullptr && !o2->done) {
          op_schedule_repoll(*o2);
        }
      });
}

void Instance::op_on_response(std::uint64_t op_id, transport::NodeId from,
                              const Message& m) {
  LogicalOp* op = find_op(op_id);
  if (op == nullptr) return;
  // The kOpResponse handler checked the shape; another type that reached
  // this op id through the correlator is ignored.
  const auto h = m.read<bool, bool>();
  if (m.type != net::kOpResponse || !h) return;
  const auto [found, serving] = *h;
  trace(obs::EventKind::kPeerResponse, node_, op_id, from,
        (found ? 2 : 0) | (serving ? 1 : 0));

  // First word from this responder: it is alive.
  op->awaiting_first.erase(from);
  auto at = op->ack_timers.find(from);
  if (at != op->ack_timers.end()) {
    timers_.cancel(at->second);
    op->ack_timers.erase(at);
  }
  cache_.record_success(from);

  if (found) {
    if (!op->done) {
      // First response wins (§3.1.3).
      op_finish(op_id, ReadResult{*m.tuple, from});
    } else if (is_destructive(op->kind)) {
      // Late winner: "the remaining instances place the tuples back into
      // their respective spaces."
      send_release(from, op_id);
    }
    return;
  }

  // No match (or the responder refused to serve).
  if (!serving) op->exhausted.insert(from);
  if (!is_blocking(op->kind)) {
    op->exhausted.insert(from);
    op_advance(op_id);
  }
}

void Instance::send_release(transport::NodeId to, std::uint64_t op_id) {
  Message rel;
  rel.type = net::kRelease;
  rel.op_id = op_id;
  rel.origin = node_;
  endpoint_.send(to, rel);
  trace(obs::EventKind::kReinsert, node_, op_id, to);
}

void Instance::op_ack_timeout(std::uint64_t op_id, transport::NodeId target) {
  LogicalOp* op = find_op(op_id);
  if (op == nullptr || op->done) return;
  op->ack_timers.erase(target);
  if (op->awaiting_first.erase(target) == 0) return;  // it did reply
  // "...removing any which do not respond" (§3.1.3).
  monitor_.peer_timeout(target);
  trace(obs::EventKind::kPeerTimeout, node_, op_id, target);
  cache_.remove(target);
  cache_.record_failure(target);
  op->exhausted.insert(target);
  op_advance(op_id);
}

void Instance::op_maybe_conclude_nonblocking(LogicalOp& op) {
  if (op.done || is_blocking(op.kind)) return;
  if (!op.contact_queue.empty()) return;
  if (!op.awaiting_first.empty()) return;
  if (op.probing) return;
  // Directed ops never probe; propagated ops get one probe round if the
  // budget allows.
  if (!op.directed && !op.probed_once &&
      leases_.contacts_remaining(op.lease)) {
    op_probe(op.id);
    return;
  }
  op_finish(op.id, std::nullopt);
}

void Instance::op_finish(std::uint64_t op_id,
                         std::optional<ReadResult> result) {
  auto it = ops_.find(op_id);
  if (it == ops_.end() || it->second.done) return;
  LogicalOp op = std::move(it->second);
  op.done = true;
  ops_.erase(it);

  // Tear down every pending arm of the operation.
  if (op.local_waiter != space::kNoWaiter) {
    space_.cancel_waiter(op.local_waiter);
  }
  if (op.repoll_timer != transport::kInvalidEvent) {
    timers_.cancel(op.repoll_timer);
  }
  for (auto& [node, ev] : op.ack_timers) {
    (void)node;
    timers_.cancel(ev);
  }
  correlator_.finish(op_id);

  const transport::NodeId winner =
      result && result->source != node_ ? result->source : transport::kNoNode;
  for (transport::NodeId contacted : op.contacted) {
    if (contacted == winner) continue;
    // Non-blocking responders that already reported a miss hold no state.
    if (!is_blocking(op.kind) && op.exhausted.contains(contacted)) continue;
    Message cancel;
    cancel.type = net::kCancelOp;
    cancel.op_id = op_id;
    cancel.origin = node_;
    endpoint_.send(contacted, cancel);
    ++monitor_.counters().cancelled;
    trace(obs::EventKind::kCancel, node_, op_id, contacted);
  }
  if (winner != transport::kNoNode && is_destructive(op.kind)) {
    confirms_[op_id] = PendingConfirm{winner, 6, transport::kInvalidEvent};
    send_confirm(op_id);
    trace(obs::EventKind::kConfirm, node_, op_id, winner);
  }

  // Account the outcome.
  auto& c = monitor_.counters();
  if (result) {
    if (result->source == node_) {
      ++c.satisfied_local;
    } else {
      ++c.satisfied_remote;
    }
    trace(obs::EventKind::kAccept, node_, op_id, result->source);
  } else if (leases_.active(op.lease)) {
    ++c.no_match;
    trace(obs::EventKind::kOpNoMatch, node_, op_id);
  } else {
    ++c.lease_expired;
    trace(obs::EventKind::kOpExpired, node_, op_id);
  }
  monitor_.op_finished(op.kind, tx_.now() - op.started_at);

  // §5.4/§5.5: feed the adaptive policy, if installed.
  if (adaptive_ != nullptr) {
    const transport::Duration granted =
        leases_.terms(op.lease).ttl.value_or(0);
    if (result) {
      adaptive_->observe_match(tx_.now() - op.started_at, granted);
    } else if (!leases_.active(op.lease)) {
      adaptive_->observe_expiry();
    }
    if (!leases_.contacts_remaining(op.lease) && !leases_.active(op.lease)) {
      adaptive_->observe_budget_exhausted(result.has_value());
    }
  }

  leases_.release(op.lease);
  if (op.cb) op.cb(std::move(result));
}

void Instance::send_confirm(std::uint64_t op_id) {
  auto it = confirms_.find(op_id);
  if (it == confirms_.end()) return;
  PendingConfirm& pc = it->second;
  if (pc.tries_left-- <= 0) {
    // Give up: the winner is unreachable; its hold timer will decide.
    confirms_.erase(it);
    return;
  }
  Message confirm;
  confirm.type = net::kConfirm;
  confirm.op_id = op_id;
  confirm.origin = node_;
  endpoint_.send(pc.winner, confirm);
  pc.timer = timers_.schedule_after(
      kResponseTimeout, [this, op_id] { send_confirm(op_id); });
}

std::uint64_t Instance::serving_key(transport::NodeId origin, std::uint64_t op_id) {
  return (static_cast<std::uint64_t>(origin) << 32) ^ (op_id & 0xffffffffull);
}

}  // namespace tiamat::core
