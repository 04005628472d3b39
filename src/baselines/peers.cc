#include "baselines/peers.h"

namespace tiamat::baselines {

PeersNode::PeersNode(transport::Transport& net, transport::NodeOptions pos)
    : net_(net),
      endpoint_(net, net.add_node(pos)),
      timers_(net.timers(endpoint_.node())),
      rng_(net.fork_rng()),
      space_(timers_, rng_, space::SpaceOptions{"peer", false}) {
  endpoint_.on(kPeersRequest, [this](transport::NodeId from, const net::Message& m) {
    handle_request(from, m);
  });
  endpoint_.on(kPeersResponse,
               [this](transport::NodeId from, const net::Message& m) {
                 handle_response(from, m);
               });
}

void PeersNode::lookup(const Pattern& p, int ttl, transport::Duration lease,
                       MatchCb cb, bool destructive) {
  ++stats_.requests_originated;
  // Local space first — free.
  auto local = destructive ? space_.inp(p) : space_.rdp(p);
  if (local) {
    ++stats_.hits;
    cb(local);
    return;
  }
  const std::uint64_t op = next_op_++;
  Origin o;
  o.cb = std::move(cb);
  o.lease_event = timers_.schedule_after(lease, [this, op] {
    auto it = origins_.find(op);
    if (it == origins_.end()) return;
    auto cb2 = std::move(it->second.cb);
    origins_.erase(it);
    ++stats_.timeouts;
    cb2(std::nullopt);  // the fault-tolerance lease expired
  });
  origins_.emplace(op, std::move(o));

  net::Message m;
  m.type = kPeersRequest;
  m.op_id = op;
  m.origin = node();
  m.h(static_cast<std::int64_t>(ttl));
  m.h(destructive);
  m.pattern = p;
  seen_.insert(OpKeyHash{}(OpKey{node(), op}));
  forward(m, transport::kNoNode);
}

void PeersNode::forward(const net::Message& m, transport::NodeId except) {
  for (transport::NodeId n : net_.visible_from(node())) {
    if (n == except || n == m.origin) continue;
    ++stats_.requests_forwarded;
    endpoint_.send(n, m);
  }
}

void PeersNode::handle_request(transport::NodeId from, const net::Message& m) {
  const auto h = m.read<std::int64_t, bool>();  // (ttl, destructive)
  if (!h || !m.pattern) {
    endpoint_.drop_malformed(from);
    return;
  }
  const auto [ttl, destructive] = *h;
  const OpKey key{m.origin, m.op_id};
  const std::uint64_t kh = OpKeyHash{}(key);
  if (seen_.contains(kh)) {
    ++stats_.duplicates_suppressed;
    return;
  }
  seen_.insert(kh);
  route_back_[key] = from;

  auto local = destructive ? space_.inp(*m.pattern) : space_.rdp(*m.pattern);
  if (local) {
    ++stats_.responses_sent;
    net::Message r;
    r.type = kPeersResponse;
    r.op_id = m.op_id;
    r.origin = m.origin;  // route target
    r.h(true);
    r.tuple = *local;
    endpoint_.send(from, r);  // back along the reverse path
    return;
  }

  if (ttl <= 1) return;  // flood exhausted here
  net::Message fwd = m;
  fwd.headers[0] = tuples::Value(ttl - 1);
  forward(fwd, from);
}

void PeersNode::handle_response(transport::NodeId, const net::Message& m) {
  if (m.origin == node()) {
    // It is ours.
    auto it = origins_.find(m.op_id);
    if (it == origins_.end()) return;  // late duplicate: dropped
    if (it->second.lease_event != transport::kInvalidEvent) {
      timers_.cancel(it->second.lease_event);
    }
    auto cb = std::move(it->second.cb);
    origins_.erase(it);
    ++stats_.hits;
    if (m.tuple) {
      cb(*m.tuple);
    } else {
      cb(std::nullopt);
    }
    return;
  }
  // Relay along the reverse path.
  auto it = route_back_.find(OpKey{m.origin, m.op_id});
  if (it == route_back_.end()) return;  // route evaporated
  ++stats_.responses_sent;
  endpoint_.send(it->second, m);
}

}  // namespace tiamat::baselines
