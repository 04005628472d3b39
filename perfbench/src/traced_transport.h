// Forwarding decorators for Instance's two injection points.
//
// TracedTransport wraps a transport::Transport and TracedPolicy wraps a
// lease policy. Both only forward: every call reaches the wrapped object
// with the same arguments and returns its result unchanged (payload bytes,
// node ids, timer ids, fork_rng streams). Around each forwarded call they
// open a span; bound delivery handlers, timer callbacks and posted
// closures are wrapped so their execution is a span too. The first sends of
// the timed section are kept for the codec replay.

#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "lease/policy.h"
#include "tracing.h"
#include "transport/transport.h"

namespace perfbench {

/// Type and op id from a wire message's fixed header (net/message.cc:
/// u16 type, u64 op_id, little-endian), read without decoding the rest.
struct WireHeader {
  std::uint16_t type = 0;
  std::uint64_t op = 0;
};
WireHeader peek_header(const tiamat::transport::Payload& p);

class TracedTransport final : public tiamat::transport::Transport {
 public:
  using NodeId = tiamat::transport::NodeId;
  using GroupId = tiamat::transport::GroupId;
  using Payload = tiamat::transport::Payload;

  TracedTransport(tiamat::transport::Transport& inner, Tracer& tracer);
  ~TracedTransport() override;

  NodeId add_node(tiamat::transport::NodeOptions opts = {}) override {
    return inner_.add_node(opts);
  }
  void remove_node(NodeId id) override { inner_.remove_node(id); }
  bool node_exists(NodeId id) const override { return inner_.node_exists(id); }
  void set_online(NodeId id, bool online) override { inner_.set_online(id, online); }
  bool online(NodeId id) const override { return inner_.online(id); }
  bool visible(NodeId a, NodeId b) const override { return inner_.visible(a, b); }
  std::vector<NodeId> visible_from(NodeId id) const override {
    return inner_.visible_from(id);
  }
  void bind(NodeId id, tiamat::transport::DeliveryHandler handler) override;
  void join_group(NodeId id, GroupId group) override { inner_.join_group(id, group); }
  void leave_group(NodeId id, GroupId group) override { inner_.leave_group(id, group); }
  void send(NodeId from, NodeId to, Payload payload) override;
  void multicast(NodeId from, GroupId group, Payload payload) override;
  tiamat::transport::Time now() const override { return inner_.now(); }
  tiamat::transport::Time now_coarse() const override { return inner_.now_coarse(); }
  tiamat::transport::TimerService& timers(NodeId id) override;
  void post(NodeId id, std::function<void()> fn) override;
  bool wait_until(const std::function<bool()>& pred,
                  tiamat::transport::Duration max_wait) override {
    return inner_.wait_until(pred, max_wait);
  }
  tiamat::transport::Rng fork_rng() override { return inner_.fork_rng(); }

  /// The first payloads sent while recording.
  std::vector<Payload> take_captured();

 private:
  class Timers;

  void capture(const Payload& p);

  tiamat::transport::Transport& inner_;
  Tracer& tracer_;
  std::mutex mu_;  // guards the map and the capture buffer below
  std::map<NodeId, std::unique_ptr<Timers>> timers_;
  std::vector<Payload> captured_;
};

/// Times LeasePolicy::offer of a DefaultLeasePolicy with the given caps.
class TracedPolicy final : public tiamat::lease::LeasePolicy {
 public:
  TracedPolicy(Tracer& tracer, tiamat::lease::DefaultLeasePolicy::Caps caps)
      : tracer_(tracer), inner_(caps) {}

  std::optional<tiamat::lease::LeaseTerms> offer(
      const tiamat::lease::LeaseTerms& requested,
      const tiamat::lease::ResourceUsage& usage,
      tiamat::transport::Time now) override {
    Tracer::Span s(&tracer_, SpanName::kOffer);
    return inner_.offer(requested, usage, now);
  }

 private:
  Tracer& tracer_;
  tiamat::lease::DefaultLeasePolicy inner_;
};

}  // namespace perfbench
