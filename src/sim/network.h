// Simulated radio network with first-class *visibility*.
//
// Tiamat's model (paper §2.2) depends only on the concept of visibility —
// "another instance is considered visible if it can be communicated with in
// some way". This network derives visibility from node positions and a radio
// range, with optional scripted per-link overrides for the Figure-1 style
// scenarios, and delivers unicast/multicast payloads with configurable
// latency, jitter and loss. It is the substitution for the paper's Java/IP
// multicast testbed (see DESIGN.md §2).

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/random.h"

namespace tiamat::sim {

/// Identifies a node for the lifetime of a run. Never reused.
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0;

/// Identifies a multicast group.
using GroupId = std::uint32_t;

struct Position {
  double x = 0.0;
  double y = 0.0;
};

double distance(const Position& a, const Position& b);

/// Latency/loss model applied to every transmission.
struct LinkModel {
  Duration base_latency = 2 * kMillisecond;  ///< fixed per-hop latency
  Duration per_kilobyte = 250;               ///< added per KiB of payload
  Duration jitter = 500;                     ///< uniform extra in [0, jitter]
  double loss = 0.0;                         ///< independent drop probability
};

/// Aggregate traffic counters; the benches report these as the paper-shaped
/// "network cost" series.
struct NetStats {
  std::uint64_t unicasts_sent = 0;
  std::uint64_t multicasts_sent = 0;  ///< one per multicast *call*
  std::uint64_t deliveries = 0;       ///< payloads actually handed to a node
  std::uint64_t drops_invisible = 0;  ///< destination not visible
  std::uint64_t drops_loss = 0;       ///< random loss
  std::uint64_t drops_dead = 0;       ///< destination removed/offline
  std::uint64_t bytes_sent = 0;       ///< sum of payload sizes transmitted

  void reset() { *this = NetStats{}; }
};

/// Per-directed-link traffic (messages given to the medium and their bytes,
/// whether or not they were ultimately delivered). Keyed by (from, to), so
/// asymmetric traffic — one chatty peer, one silent — is visible.
struct LinkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Per-link traffic keyed by directed (from, to), in ascending order.
using LinkLedger = std::map<std::pair<NodeId, NodeId>, LinkStats>;

using Payload = std::vector<std::uint8_t>;
using DeliveryHandler = std::function<void(NodeId from, const Payload&)>;

/// The simulated network. Owns node state (position, liveness, group
/// membership, delivery handler) and performs all transmission.
///
/// Every send checks visibility, and every arrival checks it again, so the
/// per-message path is a few array reads:
/// - Nodes live in a table indexed by NodeId (ids are dense from 1 and never
///   reused). A removed node's entry stays, marked absent, and keeps its
///   incarnation for add_node_at. The table is a deque, not a vector, because
///   entries need stable addresses: a delivery handler runs from its node's
///   entry and may add nodes while it runs.
/// - A packet in flight waits in a slab slot taken from a free list, and its
///   delivery event captures only the network and the slot index, which fits
///   std::function's inline buffer, so a delivery allocates nothing. Arrival
///   moves the payload out and frees the slot before the handler runs,
///   because the handler may send and take the same slot.
/// - The per-link ledger is one dense row per source, indexed by
///   destination; link_stats() assembles the ordered map when asked.
class Network {
 public:
  Network(EventQueue& queue, Rng& rng, LinkModel model = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // ---- Topology & membership -------------------------------------------

  /// Adds a node at `pos`; it starts online with no handler bound.
  NodeId add_node(Position pos = {});

  /// Re-adds a previously removed node under its old id (crash/restart
  /// scenarios: the restarted device keeps its address). The node comes
  /// back in a clean state — online, no handler, no groups, no link
  /// overrides — and packets in flight to the dead incarnation stay
  /// dropped. Returns false when `id` is still present or was never
  /// allocated by add_node.
  bool add_node_at(NodeId id, Position pos = {});

  /// Removes a node: in-flight packets to it are dropped, and every link
  /// override naming it is cleared so a later add_node_at starts from a
  /// clean visibility state.
  void remove_node(NodeId id);

  bool node_exists(NodeId id) const { return find(id) != nullptr; }

  /// Radio on/off. An offline node is invisible and receives nothing, but
  /// keeps its state — models a device sleeping or moving out of coverage.
  void set_online(NodeId id, bool online);
  bool online(NodeId id) const;

  void set_position(NodeId id, Position pos);
  Position position(NodeId id) const;

  /// Radio range used to derive visibility from positions; <= 0 means
  /// every online pair is mutually visible (a LAN).
  void set_radio_range(double range) { radio_range_ = range; }
  double radio_range() const { return radio_range_; }

  /// Scripted symmetric override: forces the a<->b link up or down
  /// regardless of positions. Used by the Figure-1 scenarios.
  void set_link(NodeId a, NodeId b, bool up);
  void clear_link_override(NodeId a, NodeId b);
  void clear_all_link_overrides() { overrides_.clear(); }

  /// True when a and b could exchange a packet right now.
  bool visible(NodeId a, NodeId b) const;

  /// All nodes visible from `id` (excluding itself), in id order.
  std::vector<NodeId> visible_from(NodeId id) const;

  // ---- Traffic -----------------------------------------------------------

  /// Installs the function invoked when a payload arrives at `id`.
  void bind(NodeId id, DeliveryHandler handler);

  void join_group(NodeId id, GroupId group);
  void leave_group(NodeId id, GroupId group);

  /// Unicast. Delivery requires visibility both at send and arrival time.
  void send(NodeId from, NodeId to, Payload payload);

  /// Multicast to every *currently visible* member of `group` except the
  /// sender. The sender need not be a member.
  void multicast(NodeId from, GroupId group, Payload payload);

  // ---- Introspection -----------------------------------------------------

  NetStats& stats() { return stats_; }
  const NetStats& stats() const { return stats_; }

  /// Per-link traffic, keyed by directed (from, to), built on each call.
  /// Iteration order is deterministic (ordered map) so exports are diffable
  /// run-over-run.
  LinkLedger link_stats() const;
  void reset_link_stats() {
    links_.clear();
    stray_links_.clear();
  }
  EventQueue& queue() { return queue_; }
  Rng& rng() { return rng_; }
  Time now() const { return queue_.now(); }
  const LinkModel& link_model() const { return model_; }
  void set_link_model(LinkModel m) { model_ = m; }

  std::vector<NodeId> node_ids() const;

 private:
  struct NodeState {
    bool present = false;  ///< false once removed; the entry stays
    bool online = true;
    Position pos;
    /// Bumped on every (re-)add of this id: a packet captures the target's
    /// incarnation at transmission and is dropped on arrival if the node
    /// was removed (and possibly re-added) in between. A restarted node
    /// never receives traffic addressed to its previous life.
    std::uint64_t incarnation = 0;
    DeliveryHandler handler;
    std::unordered_set<GroupId> groups;
  };

  /// A transmission between send and arrival.
  struct Packet {
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    std::uint64_t incarnation = 0;
    Payload payload;
  };

  const NodeState* find(NodeId id) const {
    return id < nodes_.size() && nodes_[id].present ? &nodes_[id] : nullptr;
  }
  NodeState* find(NodeId id) {
    return id < nodes_.size() && nodes_[id].present ? &nodes_[id] : nullptr;
  }
  Duration transmission_delay(std::size_t bytes);
  void deliver_later(NodeId from, NodeId to, Payload payload);
  void arrive(std::uint32_t slot);
  void account_link(NodeId from, NodeId to, std::size_t bytes);
  static std::uint64_t link_key(NodeId a, NodeId b);

  EventQueue& queue_;
  Rng& rng_;
  LinkModel model_;
  double radio_range_ = 0.0;  // <=0: everyone visible
  // Indexed by NodeId, so the next id is its size; entry 0 (kNoNode) is
  // never present.
  std::deque<NodeState> nodes_;
  // The packet slab: a delivery event names its slot.
  std::vector<Packet> packets_;
  std::vector<std::uint32_t> free_packets_;
  // Ordered: remove_node walks this to clear the dead node's entries.
  std::map<std::uint64_t, bool> overrides_;
  NetStats stats_;
  // links_[from][to], rows sized to the node table on demand. A send may
  // name an id add_node never returned (a reply goes to the origin a
  // decoded message claims); stray_links_ counts those.
  std::vector<std::vector<LinkStats>> links_;
  LinkLedger stray_links_;
};

}  // namespace tiamat::sim
