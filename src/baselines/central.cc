#include "baselines/central.h"

namespace tiamat::baselines {

CentralServer::CentralServer(transport::Transport& net, transport::NodeOptions pos)
    : net_(net),
      endpoint_(net, net.add_node(pos)),
      timers_(net.timers(endpoint_.node())),
      rng_(net.fork_rng()),
      space_(timers_, rng_, space::SpaceOptions{"central", true}) {
  auto handler = [this](transport::NodeId from, const net::Message& m) {
    handle(from, m);
  };
  for (std::uint16_t t :
       {kCentralOut, kCentralRdp, kCentralInp, kCentralRd, kCentralIn}) {
    endpoint_.on(t, handler);
  }
}

void CentralServer::reply(transport::NodeId to, std::uint64_t op_id,
                          const std::optional<Tuple>& t) {
  net::Message r;
  r.type = kCentralReply;
  r.op_id = op_id;
  r.origin = node();
  r.h(t.has_value());
  if (t) r.tuple = *t;
  endpoint_.send(to, r);
}

void CentralServer::handle(transport::NodeId from, const net::Message& m) {
  ++stats_.ops_served;
  switch (m.type) {
    case kCentralOut: {
      if (m.tuple) space_.out(*m.tuple);
      net::Message ack;
      ack.type = kCentralOutAck;
      ack.op_id = m.op_id;
      ack.origin = node();
      endpoint_.send(from, ack);
      return;
    }
    case kCentralRdp: {
      if (m.pattern) reply(from, m.op_id, space_.rdp(*m.pattern));
      return;
    }
    case kCentralInp: {
      if (m.pattern) reply(from, m.op_id, space_.inp(*m.pattern));
      return;
    }
    case kCentralRd:
    case kCentralIn: {
      const auto h = m.read<std::int64_t>();  // (deadline) and the pattern
      if (!h || !m.pattern) {
        endpoint_.drop_malformed(from);
        return;
      }
      const auto deadline = static_cast<transport::Time>(std::get<0>(*h));
      ++stats_.waiters_created;
      auto cb = [this, from, op_id = m.op_id](std::optional<Tuple> t) {
        reply(from, op_id, t);
      };
      if (m.type == kCentralRd) {
        space_.rd(*m.pattern, deadline, cb);
      } else {
        space_.in(*m.pattern, deadline, cb);
      }
      return;
    }
    default:
      return;
  }
}

CentralClient::CentralClient(transport::Transport& net, transport::NodeId server,
                             transport::NodeOptions pos)
    : net_(net),
      endpoint_(net, net.add_node(pos)),
      timers_(net.timers(endpoint_.node())),
      correlator_(timers_),
      server_(server) {
  endpoint_.on(kCentralReply, [this](transport::NodeId from, const net::Message& m) {
    if (!m.read<bool>()) {
      endpoint_.drop_malformed(from);
      return;
    }
    correlator_.route(from, m);
  });
  endpoint_.on(kCentralOutAck,
               [this](transport::NodeId from, const net::Message& m) {
                 correlator_.route(from, m);
               });
}

void CentralClient::out(Tuple t, std::function<void(bool)> cb) {
  ++stats_.ops;
  const std::uint64_t id = correlator_.next_op_id();
  net::Message m;
  m.type = kCentralOut;
  m.op_id = id;
  m.origin = node();
  m.tuple = std::move(t);
  correlator_.expect(
      id,
      [this, cb](transport::NodeId, const net::Message&) {
        if (cb) cb(true);
        return false;  // one ack ends the exchange
      },
      net_.now() + rpc_timeout,
      [this, cb] {
        ++stats_.failures;
        if (cb) cb(false);
      });
  endpoint_.send(server_, m);
}

void CentralClient::request(std::uint16_t type, const Pattern& p,
                            transport::Time deadline, MatchCb cb) {
  ++stats_.ops;
  const std::uint64_t id = correlator_.next_op_id();
  net::Message m;
  m.type = type;
  m.op_id = id;
  m.origin = node();
  m.pattern = p;
  m.h(static_cast<std::int64_t>(deadline));
  const transport::Time local_timeout =
      (deadline == transport::kNever ? net_.now() + transport::seconds(3600) : deadline) +
      rpc_timeout;
  correlator_.expect(
      id,
      [cb](transport::NodeId, const net::Message& r) {
        const auto found = r.read<bool>();
        if (found && std::get<0>(*found) && r.tuple) {
          cb(*r.tuple);
        } else {
          cb(std::nullopt);
        }
        return false;
      },
      local_timeout,
      [this, cb] {
        ++stats_.failures;
        cb(std::nullopt);
      });
  endpoint_.send(server_, m);
}

void CentralClient::rdp(const Pattern& p, MatchCb cb) {
  request(kCentralRdp, p, net_.now(), std::move(cb));
}
void CentralClient::inp(const Pattern& p, MatchCb cb) {
  request(kCentralInp, p, net_.now(), std::move(cb));
}
void CentralClient::rd(const Pattern& p, transport::Time deadline, MatchCb cb) {
  request(kCentralRd, p, deadline, std::move(cb));
}
void CentralClient::in(const Pattern& p, transport::Time deadline, MatchCb cb) {
  request(kCentralIn, p, deadline, std::move(cb));
}

}  // namespace tiamat::baselines
