#include "net/endpoint.h"

#include "obs/metric_names.h"

namespace tiamat::net {

Endpoint::Endpoint(transport::Transport& tx, transport::NodeId node)
    : tx_(tx), node_(node) {
  tx_.bind(node_,
           [this](transport::NodeId from, const transport::Payload& bytes) {
             deliver(from, bytes);
           });
}

Endpoint::~Endpoint() {
  if (tx_.node_exists(node_)) tx_.bind(node_, nullptr);
}

void Endpoint::on(std::uint16_t type, Handler handler) {
  handlers_[type] = std::move(handler);
}

void Endpoint::set_default_handler(Handler handler) {
  default_handler_ = std::move(handler);
}

void Endpoint::bind_metrics(obs::Registry& registry) {
  decode_failures_ = &registry.counter("net.decode_failures");
  unhandled_ = &registry.counter("net.unhandled");
}

void Endpoint::drop_malformed(transport::NodeId from) {
  if (decode_failures_) ++*decode_failures_;
  if (decode_failure_hook_) decode_failure_hook_(from);
}

void Endpoint::send(transport::NodeId to, const Message& m) {
  ++stats_.sent;
  tx_.send(node_, to, encode_message(m));
}

void Endpoint::multicast(transport::GroupId group, const Message& m) {
  ++stats_.multicast;
  tx_.multicast(node_, group, encode_message(m));
}

void Endpoint::join_group(transport::GroupId group) {
  tx_.join_group(node_, group);
}

void Endpoint::leave_group(transport::GroupId group) {
  tx_.leave_group(node_, group);
}

void Endpoint::deliver(transport::NodeId from,
                       const transport::Payload& bytes) {
  auto m = decode_message(bytes);
  if (!m) {
    drop_malformed(from);
    return;
  }
  ++stats_.received;
  auto it = handlers_.find(m->type);
  if (it != handlers_.end()) {
    it->second(from, *m);
  } else if (default_handler_) {
    default_handler_(from, *m);
  } else if (unhandled_) {
    ++*unhandled_;
  }
}

}  // namespace tiamat::net
