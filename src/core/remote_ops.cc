// Serving side of the logical-space protocol: how an instance satisfies
// operations propagated to it by others (§2.2), including the tentative
// removal / confirm / release dance (§3.1.3) and directed remote outs
// (§2.4). Per §2.5, "any Tiamat instance which, during the course of
// performing an operation, places demands on another, is responsible for
// negotiating any further leases": every request served here is covered by
// a lease negotiated with the *local* lease manager.

#include <algorithm>

#include "core/instance.h"

namespace tiamat::core {

namespace {
constexpr std::int64_t kNoDeadline = -1;

transport::Time decode_deadline(std::int64_t v) {
  return v == kNoDeadline ? transport::kNever : static_cast<transport::Time>(v);
}
}  // namespace

void Instance::install_handlers() {
  endpoint_.on(net::kOpRequest, [this](transport::NodeId from, const Message& m) {
    serve_op_request(from, m);
  });
  endpoint_.on(net::kOpResponse, [this](transport::NodeId from, const Message& m) {
    // (found, serving); a match carries its tuple.
    const auto h = m.read<bool, bool>();
    if (!h || (std::get<0>(*h) && !m.tuple)) {
      endpoint_.drop_malformed(from);
      return;
    }
    // Stale response to a finished operation. If it carried a match the
    // responder is holding a tentative tuple for us: release it.
    if (!correlator_.route(from, m) && std::get<0>(*h)) {
      send_release(from, m.op_id);
    }
  });
  endpoint_.on(net::kCancelOp, [this](transport::NodeId from, const Message& m) {
    serve_cancel(from, m);
  });
  endpoint_.on(net::kConfirm, [this](transport::NodeId from, const Message& m) {
    serve_confirm(from, m);
  });
  endpoint_.on(net::kConfirmAck, [this](transport::NodeId, const Message& m) {
    auto it = confirms_.find(m.op_id);
    if (it != confirms_.end()) {
      if (it->second.timer != transport::kInvalidEvent) {
        timers_.cancel(it->second.timer);
      }
      confirms_.erase(it);
    }
  });
  endpoint_.on(net::kRelease, [this](transport::NodeId from, const Message& m) {
    serve_release(from, m);
  });
  endpoint_.on(net::kRemoteOut, [this](transport::NodeId from, const Message& m) {
    serve_remote_out(from, m);
  });
  endpoint_.on(net::kRemoteOutAck, [this](transport::NodeId from, const Message& m) {
    const auto accepted = m.read<bool>();
    if (!accepted) {
      endpoint_.drop_malformed(from);
      return;
    }
    if (std::get<0>(*accepted)) router_.acked(m.op_id);
  });
  endpoint_.on(net::kRemoteEval, [this](transport::NodeId from, const Message& m) {
    serve_remote_eval(from, m);
  });
  endpoint_.on(net::kRemoteEvalAck,
               [this](transport::NodeId from, const Message& m) {
                 if (!m.read<bool>()) {
                   endpoint_.drop_malformed(from);
                   return;
                 }
                 correlator_.route(from, m);
               });
}

void Instance::serve_op_request(transport::NodeId from, const Message& m) {
  // (op kind, requester deadline) and a pattern. Checked before any lease
  // is negotiated: a malformed request must not hold serving resources.
  const auto h = m.read<std::int64_t, std::int64_t>();
  if (!h || !m.pattern ||
      std::get<0>(*h) < static_cast<std::int64_t>(OpKind::kRd) ||
      std::get<0>(*h) > static_cast<std::int64_t>(OpKind::kInp)) {
    endpoint_.drop_malformed(from);
    return;
  }
  const auto kind = static_cast<OpKind>(std::get<0>(*h));
  const transport::Time requester_deadline = decode_deadline(std::get<1>(*h));
  const transport::NodeId origin = m.origin != transport::kNoNode ? m.origin : from;
  const std::uint64_t op_id = m.op_id;
  const std::uint64_t key = serving_key(origin, op_id);

  auto reply = [this, origin, op_id](bool found, bool serving,
                                     const std::optional<Tuple>& t) {
    Message r;
    r.type = net::kOpResponse;
    r.op_id = op_id;
    r.origin = node_;
    r.h(found);
    r.h(serving);
    if (t) r.tuple = *t;
    endpoint_.send(origin, r);
  };

  // Negotiate a local lease covering the served work; refusal means this
  // instance declines to participate in the operation.
  lease::LeaseTerms want;
  if (requester_deadline != transport::kNever) {
    const transport::Duration remaining = requester_deadline - tx_.now();
    if (remaining <= 0) return;  // arrived after the originator gave up
    want.ttl = remaining;
  }
  auto l = leases_.negotiate(lease::FlexibleRequester{want});
  if (!l) {
    ++monitor_.counters().remote_serving_refused;
    trace(obs::EventKind::kServeRefused, origin, op_id, origin);
    reply(false, false, std::nullopt);
    return;
  }
  ++monitor_.counters().remote_requests_served;
  trace(obs::EventKind::kServeStart, origin, op_id, origin,
        static_cast<std::int64_t>(kind));

  const transport::Time deadline =
      std::min(requester_deadline, leases_.expiry_time(l));

  switch (kind) {
    case OpKind::kRdp: {
      auto t = space_.rdp(*m.pattern);
      if (t) trace(obs::EventKind::kServeMatch, origin, op_id, origin);
      reply(t.has_value(), true, t);
      leases_.release(l);
      return;
    }
    case OpKind::kInp: {
      auto taken = space_.take_tentative(*m.pattern);
      if (!taken) {
        reply(false, true, std::nullopt);
        leases_.release(l);
        return;
      }
      trace(obs::EventKind::kServeMatch, origin, op_id, origin);
      Serving s;
      s.op_id = op_id;
      s.origin = origin;
      s.kind = kind;
      s.lease = l;
      s.tentative = taken->first;
      s.hold_timer = timers_.schedule_after(
          cfg_.tentative_hold, [this, key] { serving_drop(key, true); });
      serving_[key] = std::move(s);
      reply(true, true, taken->second);
      return;
    }
    case OpKind::kRd: {
      Serving s;
      s.op_id = op_id;
      s.origin = origin;
      s.kind = kind;
      s.lease = l;
      // Arm the waiter first; if it fires synchronously the entry must
      // already exist, so stage it before calling into the space.
      serving_[key] = std::move(s);
      const space::WaiterId wid = space_.rd(
          *m.pattern, deadline,
          [this, key, origin, op_id, reply](std::optional<Tuple> t) {
            if (t) {
              trace(obs::EventKind::kServeMatch, origin, op_id, origin);
              reply(true, true, t);
            }
            serving_drop(key, false);
          });
      // kNoWaiter: the callback already ran (a match, or a passed deadline).
      if (wid == space::kNoWaiter) return;
      // No immediate match: ack so the originator keeps us on its list.
      reply(false, true, std::nullopt);
      auto it = serving_.find(key);
      if (it == serving_.end()) return;
      it->second.waiter = wid;
      leases_.set_owner(l, {lease::OwnerKind::kServing, key});
      return;
    }
    case OpKind::kIn: {
      Serving s;
      s.op_id = op_id;
      s.origin = origin;
      s.kind = kind;
      s.lease = l;
      // Compiled once: the search below, the waiter and every re-arm use it.
      s.pattern = tuples::CompiledPattern(*m.pattern);
      s.deadline = deadline;
      const bool immediate = !space_.has_match(s.pattern);  // will it block?
      serving_[key] = std::move(s);
      if (immediate) {
        // No match yet: ack so the originator keeps us on its list.
        reply(false, true, std::nullopt);
      }
      arm_serving_in(key);
      if (!serving_.contains(key)) return;  // resolved synchronously
      leases_.set_owner(l, {lease::OwnerKind::kServing, key});
      return;
    }
  }
}

void Instance::arm_serving_in(std::uint64_t key) {
  auto sit = serving_.find(key);
  if (sit == serving_.end()) return;
  Serving& s = sit->second;
  const transport::NodeId origin = s.origin;
  const std::uint64_t op_id = s.op_id;
  auto reply = [this, origin, op_id](bool found, const std::optional<Tuple>& t) {
    Message r;
    r.type = net::kOpResponse;
    r.op_id = op_id;
    r.origin = node_;
    r.h(found);
    r.h(true);
    if (t) r.tuple = *t;
    endpoint_.send(origin, r);
  };
  s.waiter = space_.take_tentative_blocking(
      s.pattern, s.deadline,
      [this, key, origin, op_id,
       reply](std::optional<std::pair<tuples::TupleId, Tuple>> r) {
        auto it = serving_.find(key);
        if (!r) {
          serving_drop(key, false);
          return;
        }
        if (it == serving_.end()) {
          // Entry vanished (cancelled) yet the waiter fired: put the tuple
          // straight back.
          serving_reinsert(r->first, origin, op_id);
          return;
        }
        it->second.tentative = r->first;
        it->second.waiter = space::kNoWaiter;
        // Hold the tentative removal awaiting Confirm/Release. If neither
        // arrives (the reply was lost — the originator moved out of range),
        // put the tuple back and re-arm: the next match retransmits the
        // reply, converging once the originator is reachable again.
        it->second.hold_timer = timers_.schedule_after(
            cfg_.tentative_hold, [this, key] {
              auto it2 = serving_.find(key);
              if (it2 == serving_.end()) return;
              it2->second.hold_timer = transport::kInvalidEvent;
              if (it2->second.tentative != tuples::kNoTuple) {
                serving_reinsert(it2->second.tentative, it2->second.origin,
                                 it2->second.op_id);
                it2->second.tentative = tuples::kNoTuple;
              }
              if (it2->second.deadline > tx_.now()) {
                arm_serving_in(key);
              } else {
                serving_drop(key, false);
              }
            });
        trace(obs::EventKind::kServeMatch, it->second.origin,
              it->second.op_id, it->second.origin);
        reply(true, r->second);
      });
  // If the waiter fired synchronously the entry may already be gone or
  // holding a tentative; nothing more to do either way.
}

void Instance::serving_drop(std::uint64_t key, bool release_tentative) {
  auto it = serving_.find(key);
  if (it == serving_.end()) return;
  Serving s = std::move(it->second);
  serving_.erase(it);
  if (s.waiter != space::kNoWaiter) space_.cancel_waiter(s.waiter);
  if (s.hold_timer != transport::kInvalidEvent) timers_.cancel(s.hold_timer);
  if (s.tentative != tuples::kNoTuple && release_tentative) {
    serving_reinsert(s.tentative, s.origin, s.op_id);
  }
  leases_.release(s.lease);
}

void Instance::serving_reinsert(tuples::TupleId id, transport::NodeId origin,
                                std::uint64_t op_id) {
  if (!space_.release_tentative(id)) return;
  ++monitor_.counters().tuples_reinserted;
  trace(obs::EventKind::kServeReinsert, origin, op_id, origin);
}

void Instance::serve_cancel(transport::NodeId from, const Message& m) {
  // Originator is done with us; put any tentative tuple back.
  serving_drop(serving_key(from, m.op_id), true);
}

void Instance::serve_confirm(transport::NodeId from, const Message& m) {
  const std::uint64_t key = serving_key(from, m.op_id);
  auto it = serving_.find(key);
  if (it != serving_.end()) {
    if (it->second.tentative != tuples::kNoTuple) {
      space_.confirm_tentative(it->second.tentative);
      it->second.tentative = tuples::kNoTuple;
      trace(obs::EventKind::kServeConfirm, from, m.op_id, from);
    }
    serving_drop(key, false);
  }
  // Always acknowledge — the confirm may be a retransmission for an entry
  // we already settled, and the winner keeps retransmitting until acked.
  Message ack;
  ack.type = net::kConfirmAck;
  ack.op_id = m.op_id;
  ack.origin = node_;
  endpoint_.send(from, ack);
}

void Instance::serve_release(transport::NodeId from, const Message& m) {
  serving_drop(serving_key(from, m.op_id), true);
}

void Instance::serve_remote_out(transport::NodeId from, const Message& m) {
  const auto h = m.read<std::int64_t>();  // (ttl) and the tuple
  if (!h || !m.tuple) {
    endpoint_.drop_malformed(from);
    return;
  }
  const auto [ttl] = *h;

  auto ack = [this, from, &m](bool accepted) {
    Message a;
    a.type = net::kRemoteOutAck;
    a.op_id = m.op_id;
    a.origin = node_;
    a.h(accepted);
    endpoint_.send(from, a);
  };

  lease::LeaseTerms want;
  if (ttl >= 0) want.ttl = ttl;
  want.max_bytes = m.tuple->footprint();
  auto l = leases_.negotiate(lease::FlexibleRequester{want});
  if (!l || !leases_.charge_bytes(l, m.tuple->footprint())) {
    leases_.release(l);
    ack(false);
    return;
  }
  tuples::TupleId id = space_.out(*m.tuple);
  if (id != tuples::kNoTuple) {
    leases_.set_owner(l, {lease::OwnerKind::kStoredTuple, id});
  } else {
    leases_.release(l);  // consumed synchronously by a waiter
  }
  ack(true);
}

void Instance::serve_remote_eval(transport::NodeId from, const Message& m) {
  const auto h = m.read<std::string, std::int64_t>();  // (name, ttl), args
  if (!h || !m.tuple) {
    endpoint_.drop_malformed(from);
    return;
  }
  const auto& [name, ttl] = *h;

  auto ack = [this, from, &m](bool accepted) {
    Message a;
    a.type = net::kRemoteEvalAck;
    a.op_id = m.op_id;
    a.origin = node_;
    a.h(accepted);
    endpoint_.send(from, a);
  };

  const auto* c = registry_.find(name);
  if (c == nullptr) {
    ack(false);  // we do not know this computation
    return;
  }
  // "Any Tiamat instance which ... places demands on another, is
  // responsible for negotiating any further leases" — the served eval runs
  // under a lease from *our* manager.
  lease::LeaseTerms want;
  if (ttl >= 0) want.ttl = ttl;
  auto l = leases_.negotiate(lease::FlexibleRequester{want});
  if (!l) {
    ++monitor_.counters().remote_serving_refused;
    ack(false);
    return;
  }
  ++monitor_.counters().evals_started;
  const transport::Time halt_by = leases_.expiry_time(l);
  const Tuple args = *m.tuple;
  space::EvalId eid = evals_.submit_fn([c, args] { return c->fn(args); },
                                       c->cost(args), halt_by, halt_by);
  leases_.set_owner(l, {lease::OwnerKind::kEval, eid});
  ack(true);
}

}  // namespace tiamat::core
