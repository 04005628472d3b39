#include "baselines/limbo.h"


namespace tiamat::baselines {

LimboNode::LimboNode(transport::Transport& net, transport::GroupId space_group,
                     transport::NodeOptions pos)
    : net_(net), endpoint_(net, net.add_node(pos)),
      timers_(net.timers(endpoint_.node())), group_(space_group) {
  endpoint_.join_group(group_);
  auto handler = [this](transport::NodeId from, const net::Message& m) {
    handle(from, m);
  };
  for (std::uint16_t t : {kLimboAdd, kLimboDel, kLimboSyncReq,
                          kLimboSyncState, kLimboTransfer}) {
    endpoint_.on(t, handler);
  }
}

// ---- Replica maintenance ------------------------------------------------------

void LimboNode::apply_add(const GlobalId& id, Tuple t, transport::NodeId owner) {
  const std::uint64_t k = id.key();
  if (tombstones_.contains(k)) return;  // deleted before we saw the add
  if (replica_.contains(k)) return;       // duplicate
  serve_waiters(t);
  ids_[k] = id;
  owners_[k] = owner;
  replica_.insert(k, std::move(t));
}

void LimboNode::apply_del(const GlobalId& id) {
  const std::uint64_t k = id.key();
  tombstones_.insert(k);
  replica_.erase(k);
  owners_.erase(k);
  ids_.erase(k);
}

void LimboNode::broadcast_add(const GlobalId& id, const Tuple& t,
                              transport::NodeId owner) {
  net::Message m;
  m.type = kLimboAdd;
  m.origin = node();
  m.h(static_cast<std::int64_t>(id.creator));
  m.h(static_cast<std::int64_t>(id.seq));
  m.h(static_cast<std::int64_t>(owner));
  m.tuple = t;
  if (connected_) {
    ++stats_.adds_sent;
    endpoint_.multicast(group_, m);
  } else {
    oplog_.push_back(std::move(m));
  }
}

void LimboNode::broadcast_del(const GlobalId& id) {
  net::Message m;
  m.type = kLimboDel;
  m.origin = node();
  m.h(static_cast<std::int64_t>(id.creator));
  m.h(static_cast<std::int64_t>(id.seq));
  if (connected_) {
    ++stats_.dels_sent;
    endpoint_.multicast(group_, m);
  } else {
    // "The client must retain information as to which tuples were removed
    // during its disconnection so that it can inform others ... once it
    // reconnects."
    oplog_.push_back(std::move(m));
  }
}

// ---- Operations ------------------------------------------------------------------

GlobalId LimboNode::out(Tuple t) {
  GlobalId id{node(), next_seq_++};
  apply_add(id, t, node());
  broadcast_add(id, t, node());
  return id;
}

std::optional<Tuple> LimboNode::rd(const Pattern& p) {
  auto r = rd_with_id(p);
  if (!r) return std::nullopt;
  return r->second;
}

std::optional<std::pair<GlobalId, Tuple>> LimboNode::rd_with_id(
    const Pattern& p) {
  auto k = replica_.find_first(p);
  if (!k) return std::nullopt;
  return std::make_pair(ids_.at(*k), *replica_.get(*k));
}

void LimboNode::rd_blocking(const Pattern& p, transport::Time deadline,
                            MatchCb cb) {
  if (auto t = rd(p)) {
    cb(t);
    return;
  }
  if (deadline <= net_.now()) {
    cb(std::nullopt);
    return;
  }
  const std::uint64_t wid = next_waiter_++;
  Waiter w;
  w.cb = std::move(cb);
  w.deadline_event = timers_.schedule_at(deadline, [this, wid] {
    if (auto e = waiters_.extract(wid)) e->payload.cb(std::nullopt);
  });
  waiters_.add(wid, tuples::CompiledPattern(p), std::move(w));
}

void LimboNode::serve_waiters(const Tuple& t) {
  // Collect-extract-then-fire: callbacks may re-enter (issue another
  // blocking rd), so the index must be settled before any cb runs.
  std::vector<Waiter> fired;
  for (std::uint64_t wid : waiters_.candidates(t)) {
    const tuples::CompiledPattern* cp = waiters_.pattern_of(wid);
    if (cp == nullptr || !cp->matches(t)) continue;
    auto e = waiters_.extract(wid);
    if (e->payload.deadline_event != transport::kInvalidEvent) {
      timers_.cancel(e->payload.deadline_event);
    }
    fired.push_back(std::move(e->payload));
  }
  for (auto& w : fired) w.cb(t);
}

std::optional<Tuple> LimboNode::in_owned(const Pattern& p) {
  // First owned match in ascending key order (what the old map scan chose);
  // deletion waits until the engine iteration has finished.
  std::optional<std::uint64_t> victim;
  replica_.for_each_match(
      tuples::CompiledPattern(p), [&](tuples::TupleId k, const Tuple&) {
        if (owners_.at(k) != node()) return true;  // someone else's — skip
        victim = k;
        return false;
      });
  if (!victim) {
    return std::nullopt;  // nothing we own matches — even if others' do
  }
  GlobalId id = ids_.at(*victim);
  Tuple t = *replica_.get(*victim);
  apply_del(id);
  broadcast_del(id);
  return t;
}

bool LimboNode::transfer_ownership(const GlobalId& id, transport::NodeId new_owner) {
  auto it = owners_.find(id.key());
  if (it == owners_.end() || it->second != node()) return false;
  // Ownership handover requires direct, synchronous contact with the
  // recipient — the identity/time/space decoupling break of §4.3.
  if (!net_.visible(node(), new_owner)) return false;
  it->second = new_owner;
  net::Message m;
  m.type = kLimboTransfer;
  m.origin = node();
  m.h(static_cast<std::int64_t>(id.creator));
  m.h(static_cast<std::int64_t>(id.seq));
  m.h(static_cast<std::int64_t>(new_owner));
  endpoint_.multicast(group_, m);
  endpoint_.send(new_owner, m);  // make sure the recipient learns even if
                                 // it missed the multicast
  return true;
}

// ---- Disconnection ------------------------------------------------------------------

void LimboNode::disconnect() {
  connected_ = false;
  net_.set_online(node(), false);
}

void LimboNode::reconnect() {
  net_.set_online(node(), true);
  connected_ = true;
  // Replay the disconnected-op log.
  for (auto& m : oplog_) {
    ++stats_.log_replays;
    if (m.type == kLimboAdd) ++stats_.adds_sent;
    if (m.type == kLimboDel) ++stats_.dels_sent;
    endpoint_.multicast(group_, m);
  }
  oplog_.clear();
  // "After reconnection, the client ... subsequently requests copies of any
  // new tuples."
  net::Message req;
  req.type = kLimboSyncReq;
  req.origin = node();
  ++stats_.sync_requests;
  endpoint_.multicast(group_, req);
}

std::size_t LimboNode::owned_tuples() const {
  std::size_t n = 0;
  for (const auto& [k, owner] : owners_) {
    (void)k;
    if (owner == node()) ++n;
  }
  return n;
}

// ---- Protocol -----------------------------------------------------------------------

void LimboNode::handle(transport::NodeId from, const net::Message& m) {
  // (creator, seq) name a tuple; an owner follows where the type has one.
  auto id_of = [](std::int64_t creator, std::int64_t seq) {
    return GlobalId{static_cast<transport::NodeId>(creator),
                    static_cast<std::uint64_t>(seq)};
  };
  using I = std::int64_t;
  switch (m.type) {
    case kLimboAdd:
    case kLimboSyncState: {
      const auto h = m.read<I, I, I>();
      if (!h || !m.tuple) break;
      const auto [creator, seq, owner] = *h;
      if (m.type == kLimboSyncState) ++stats_.sync_tuples_received;
      apply_add(id_of(creator, seq), *m.tuple,
                static_cast<transport::NodeId>(owner));
      return;
    }
    case kLimboDel: {
      const auto h = m.read<I, I>();
      if (!h) break;
      apply_del(id_of(std::get<0>(*h), std::get<1>(*h)));
      return;
    }
    case kLimboTransfer: {
      const auto h = m.read<I, I, I>();
      if (!h) break;
      const auto [creator, seq, owner] = *h;
      auto it = owners_.find(id_of(creator, seq).key());
      if (it != owners_.end()) {
        it->second = static_cast<transport::NodeId>(owner);
      }
      return;
    }
    case kLimboSyncReq: {
      // Ship our full replica to the requester, one tuple per message
      // (models the real per-tuple retransmission traffic).
      replica_.for_each([&](tuples::TupleId k, const Tuple& t) {
        const GlobalId& id = ids_.at(k);
        net::Message s;
        s.type = kLimboSyncState;
        s.origin = node();
        s.h(static_cast<std::int64_t>(id.creator));
        s.h(static_cast<std::int64_t>(id.seq));
        s.h(static_cast<std::int64_t>(owners_.at(k)));
        s.tuple = t;
        endpoint_.send(from, s);
      });
      return;
    }
    default:
      return;
  }
  endpoint_.drop_malformed(from);
}

}  // namespace tiamat::baselines
