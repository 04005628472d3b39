// Endpoint: a node's attachment to the transport, with typed message
// dispatch. Encoding/decoding happens here, so everything above it deals in
// Message values and everything below in raw bytes.
//
// The endpoint is backend-agnostic: it talks to the abstract
// transport::Transport, so the same protocol code runs over the
// deterministic simulator and the multi-threaded loopback backend.
//
// Dropped input has one path. A payload that does not decode, or a message
// its handler finds malformed (drop_malformed), counts in the bound
// "net.decode_failures" counter and fires the decode-failure hook; a
// message with no handler counts in "net.unhandled". Those counters are the
// only record: an unbound endpoint counts no drops, so the owner binds it
// before joining any group.

#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/message.h"
#include "obs/metrics.h"
#include "transport/transport.h"

namespace tiamat::net {

class Endpoint {
 public:
  using Handler = std::function<void(transport::NodeId from, const Message&)>;

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t multicast = 0;
    std::uint64_t received = 0;
  };

  Endpoint(transport::Transport& tx, transport::NodeId node);

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  ~Endpoint();

  transport::NodeId node() const { return node_; }
  transport::Transport& transport() { return tx_; }

  /// Registers the handler for one message type (replacing any previous).
  void on(std::uint16_t type, Handler handler);

  /// Fallback for types with no specific handler.
  void set_default_handler(Handler handler);

  void send(transport::NodeId to, const Message& m);
  void multicast(transport::GroupId group, const Message& m);

  void join_group(transport::GroupId group);
  void leave_group(transport::GroupId group);

  /// Counts the drop paths in `registry` ("net.decode_failures" /
  /// "net.unhandled"), so silent message loss shows in metric snapshots.
  void bind_metrics(obs::Registry& registry);

  /// The drop path for a message that decoded but that its handler cannot
  /// use (a header of the wrong type, an out-of-range enum): counted and
  /// hooked exactly like a payload that failed to decode.
  void drop_malformed(transport::NodeId from);

  /// Invoked (with the claimed sender) on every decode failure or
  /// drop_malformed; Instance uses it to emit a kDecodeFailure trace event.
  void set_decode_failure_hook(std::function<void(transport::NodeId)> hook) {
    decode_failure_hook_ = std::move(hook);
  }

  const Stats& stats() const { return stats_; }
  transport::Time now() const { return tx_.now(); }

 private:
  void deliver(transport::NodeId from, const transport::Payload& bytes);

  transport::Transport& tx_;
  transport::NodeId node_;
  std::unordered_map<std::uint16_t, Handler> handlers_;
  Handler default_handler_;
  Stats stats_;
  obs::Counter* decode_failures_ = nullptr;  ///< set by bind_metrics
  obs::Counter* unhandled_ = nullptr;        ///< set by bind_metrics
  std::function<void(transport::NodeId)> decode_failure_hook_;
};

}  // namespace tiamat::net
