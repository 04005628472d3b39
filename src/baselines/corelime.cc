#include "baselines/corelime.h"

namespace tiamat::baselines {

CoreLimeHost::CoreLimeHost(transport::Transport& net, transport::NodeOptions pos)
    : net_(net),
      endpoint_(net, net.add_node(pos)),
      timers_(net.timers(endpoint_.node())),
      rng_(net.fork_rng()),
      space_(timers_, rng_, space::SpaceOptions{"corelime-host", false}),
      correlator_(timers_) {
  endpoint_.on(kAgentGo, [this](transport::NodeId from, const net::Message& m) {
    handle(from, m);
  });
  endpoint_.on(kAgentReturn,
               [this](transport::NodeId from, const net::Message& m) {
                 if (!m.read<bool, tuples::Blob>()) {
                   endpoint_.drop_malformed(from);
                   return;
                 }
                 correlator_.route(from, m);
               });
}

void CoreLimeHost::agent_op(transport::NodeId dest, bool destructive,
                            const Pattern& p, MatchCb cb,
                            transport::Duration timeout) {
  ++stats_.agents_sent;
  const std::uint64_t id = correlator_.next_op_id();
  net::Message m;
  m.type = kAgentGo;
  m.op_id = id;
  m.origin = node();
  m.h(destructive);
  // Model the agent's code+state shipped with the migration.
  m.h(tuples::Value(tuples::Blob(agent_code_size, 0xA6)));
  m.pattern = p;
  correlator_.expect(
      id,
      [cb](transport::NodeId, const net::Message& r) {
        const auto found = r.read<bool, tuples::Blob>();
        if (found && std::get<0>(*found) && r.tuple) {
          cb(*r.tuple);
        } else {
          cb(std::nullopt);
        }
        return false;
      },
      net_.now() + timeout,
      [this, cb] {
        ++stats_.agents_lost;
        cb(std::nullopt);
      });
  endpoint_.send(dest, m);
}

void CoreLimeHost::handle(transport::NodeId from, const net::Message& m) {
  const auto h = m.read<bool, tuples::Blob>();  // (destructive, agent code)
  if (!h || !m.pattern) {
    endpoint_.drop_malformed(from);
    return;
  }
  const auto& [destructive, code] = *h;
  ++stats_.agents_hosted;
  // The agent engages with the host-level space and performs its op.
  std::optional<Tuple> result =
      destructive ? space_.inp(*m.pattern) : space_.rdp(*m.pattern);
  // ... then migrates home carrying the result (and its own code again —
  // the same payload it arrived with, not this host's default).
  net::Message back;
  back.type = kAgentReturn;
  back.op_id = m.op_id;
  back.origin = node();
  back.h(result.has_value());
  back.h(tuples::Value(tuples::Blob(code.size(), 0xA6)));
  if (result) back.tuple = *result;
  endpoint_.send(from, back);
}

}  // namespace tiamat::baselines
