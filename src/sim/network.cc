#include "sim/network.h"

#include <cmath>
#include <utility>

namespace tiamat::sim {

double distance(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

Network::Network(EventQueue& queue, Rng& rng, LinkModel model)
    : queue_(queue), rng_(rng), model_(model), nodes_(1) {}

NodeId Network::add_node(Position pos) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.emplace_back();
  add_node_at(id, pos);  // the new entry's first incarnation
  return id;
}

bool Network::add_node_at(NodeId id, Position pos) {
  // Rejects a live id, and one add_node never allocated.
  if (id == kNoNode || id >= nodes_.size() || nodes_[id].present) return false;
  NodeState& n = nodes_[id];
  n.present = true;
  n.online = true;
  n.pos = pos;
  ++n.incarnation;
  return true;
}

void Network::remove_node(NodeId id) {
  NodeState* n = find(id);
  if (n == nullptr) return;
  // The entry stays for its incarnation; a restart starts with no handler
  // and no groups.
  n->present = false;
  n->handler = nullptr;
  n->groups.clear();
  // A dead node keeps no scripted links: if the id is ever re-added it must
  // start from a clean visibility state, not inherit its past overrides.
  for (auto it = overrides_.begin(); it != overrides_.end();) {
    const NodeId a = static_cast<NodeId>(it->first >> 32);
    const NodeId b = static_cast<NodeId>(it->first & 0xFFFFFFFFu);
    if (a == id || b == id) {
      it = overrides_.erase(it);
    } else {
      ++it;
    }
  }
}

void Network::set_online(NodeId id, bool online) {
  if (NodeState* n = find(id)) n->online = online;
}

bool Network::online(NodeId id) const {
  const NodeState* n = find(id);
  return n != nullptr && n->online;
}

void Network::set_position(NodeId id, Position pos) {
  if (NodeState* n = find(id)) n->pos = pos;
}

Position Network::position(NodeId id) const {
  const NodeState* n = find(id);
  return n == nullptr ? Position{} : n->pos;
}

std::uint64_t Network::link_key(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

void Network::set_link(NodeId a, NodeId b, bool up) {
  overrides_[link_key(a, b)] = up;
}

void Network::clear_link_override(NodeId a, NodeId b) {
  overrides_.erase(link_key(a, b));
}

bool Network::visible(NodeId a, NodeId b) const {
  const NodeState* na = find(a);
  const NodeState* nb = find(b);
  if (na == nullptr || nb == nullptr || !na->online || !nb->online) {
    return false;
  }
  if (a == b) return true;
  if (!overrides_.empty()) {
    auto ov = overrides_.find(link_key(a, b));
    if (ov != overrides_.end()) return ov->second;
  }
  if (radio_range_ <= 0.0) return true;
  return distance(na->pos, nb->pos) <= radio_range_;
}

std::vector<NodeId> Network::visible_from(NodeId id) const {
  std::vector<NodeId> out;
  for (NodeId other = 1; other < nodes_.size(); ++other) {
    if (other != id && visible(id, other)) out.push_back(other);
  }
  return out;
}

void Network::bind(NodeId id, DeliveryHandler handler) {
  if (NodeState* n = find(id)) n->handler = std::move(handler);
}

void Network::join_group(NodeId id, GroupId group) {
  if (NodeState* n = find(id)) n->groups.insert(group);
}

void Network::leave_group(NodeId id, GroupId group) {
  if (NodeState* n = find(id)) n->groups.erase(group);
}

Duration Network::transmission_delay(std::size_t bytes) {
  Duration d = model_.base_latency;
  d += static_cast<Duration>(bytes) * model_.per_kilobyte / 1024;
  if (model_.jitter > 0) d += rng_.uniform(0, model_.jitter);
  return d;
}

void Network::account_link(NodeId from, NodeId to, std::size_t bytes) {
  LinkStats* ls = nullptr;
  if (from < nodes_.size() && to < nodes_.size()) {
    if (links_.size() <= from) links_.resize(nodes_.size());
    std::vector<LinkStats>& row = links_[from];
    if (row.size() <= to) row.resize(nodes_.size());
    ls = &row[to];
  } else {
    ls = &stray_links_[{from, to}];
  }
  ++ls->messages;
  ls->bytes += bytes;
}

LinkLedger Network::link_stats() const {
  LinkLedger out = stray_links_;
  for (NodeId from = 0; from < links_.size(); ++from) {
    const std::vector<LinkStats>& row = links_[from];
    for (NodeId to = 0; to < row.size(); ++to) {
      if (row[to].messages == 0) continue;
      LinkStats& ls = out[{from, to}];
      ls.messages += row[to].messages;
      ls.bytes += row[to].bytes;
    }
  }
  return out;
}

void Network::deliver_later(NodeId from, NodeId to, Payload payload) {
  stats_.bytes_sent += payload.size();
  account_link(from, to, payload.size());
  if (model_.loss > 0.0 && rng_.chance(model_.loss)) {
    ++stats_.drops_loss;
    return;
  }
  const Duration delay = transmission_delay(payload.size());
  if (free_packets_.empty()) {
    free_packets_.push_back(static_cast<std::uint32_t>(packets_.size()));
    packets_.emplace_back();
  }
  const std::uint32_t slot = free_packets_.back();
  free_packets_.pop_back();
  // Both callers checked that `to` is visible, so its entry is present.
  packets_[slot] =
      Packet{from, to, nodes_[to].incarnation, std::move(payload)};
  // 16 bytes of capture: std::function holds it inline, no allocation.
  queue_.schedule_after(delay, [this, slot] { arrive(slot); });
}

void Network::arrive(std::uint32_t slot) {
  // Free the slot before the handler runs: it may send and reuse it.
  const Packet packet = std::move(packets_[slot]);
  free_packets_.push_back(slot);
  const NodeState* target = find(packet.to);
  // A packet addressed to an earlier incarnation of a restarted node is as
  // dead as one addressed to a removed node.
  if (target == nullptr || !target->online ||
      target->incarnation != packet.incarnation) {
    ++stats_.drops_dead;
    return;
  }
  // Packets in flight are lost if the pair moved apart before arrival.
  if (!visible(packet.from, packet.to)) {
    ++stats_.drops_invisible;
    return;
  }
  ++stats_.deliveries;
  if (target->handler) target->handler(packet.from, packet.payload);
}

void Network::send(NodeId from, NodeId to, Payload payload) {
  ++stats_.unicasts_sent;
  if (!visible(from, to)) {
    stats_.bytes_sent += payload.size();
    account_link(from, to, payload.size());
    ++stats_.drops_invisible;
    return;
  }
  deliver_later(from, to, std::move(payload));
}

void Network::multicast(NodeId from, GroupId group, Payload payload) {
  ++stats_.multicasts_sent;
  for (NodeId id = 1; id < nodes_.size(); ++id) {
    if (id == from || !nodes_[id].groups.contains(group)) continue;
    if (!visible(from, id)) continue;
    deliver_later(from, id, payload);  // copy per receiver
  }
}

std::vector<NodeId> Network::node_ids() const {
  std::vector<NodeId> out;
  for (NodeId id = 1; id < nodes_.size(); ++id) {
    if (nodes_[id].present) out.push_back(id);
  }
  return out;
}

}  // namespace tiamat::sim
