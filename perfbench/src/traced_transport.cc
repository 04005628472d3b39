#include "traced_transport.h"

namespace perfbench {

using tiamat::transport::DeliveryHandler;
using tiamat::transport::TimerId;
using tiamat::transport::TimerService;

namespace {
// Payloads kept for the codec replay: the first sends of the traced section,
// enough for a steady per-message mean.
constexpr std::size_t kCaptureLimit = 4096;
}  // namespace

WireHeader peek_header(const tiamat::transport::Payload& p) {
  WireHeader h;
  if (p.size() < 10) return h;
  h.type = static_cast<std::uint16_t>(p[0] | (p[1] << 8));
  for (int i = 7; i >= 0; --i) h.op = (h.op << 8) | p[2 + static_cast<std::size_t>(i)];
  return h;
}

/// One node's TimerService, forwarding to the wrapped transport's.
class TracedTransport::Timers final : public TimerService {
 public:
  Timers(TimerService& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  tiamat::transport::Time now() const override { return inner_.now(); }

  TimerId schedule_at(tiamat::transport::Time when,
                      std::function<void()> fn) override {
    std::function<void()> wrapped;
    {
      AllocPause pause;
      wrapped = [t = &tracer_, fn = std::move(fn)] {
        Tracer::Span s(t, SpanName::kCallback);
        fn();
      };
    }
    Tracer::Span s(&tracer_, SpanName::kSchedule);
    return inner_.schedule_at(when, std::move(wrapped));
  }

  bool cancel(TimerId id) override {
    Tracer::Span s(&tracer_, SpanName::kCancel);
    return inner_.cancel(id);
  }

 private:
  TimerService& inner_;
  Tracer& tracer_;
};

TracedTransport::TracedTransport(tiamat::transport::Transport& inner, Tracer& tracer)
    : inner_(inner), tracer_(tracer) {}

TracedTransport::~TracedTransport() = default;

tiamat::transport::TimerService& TracedTransport::timers(NodeId id) {
  AllocPause pause;
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Timers>& slot = timers_[id];
  if (!slot) slot = std::make_unique<Timers>(inner_.timers(id), tracer_);
  return *slot;
}

void TracedTransport::bind(NodeId id, DeliveryHandler handler) {
  if (!handler) {
    inner_.bind(id, nullptr);
    return;
  }
  DeliveryHandler wrapped;
  {
    AllocPause pause;
    wrapped = [this, h = std::move(handler)](NodeId from, const Payload& p) {
      const WireHeader hdr = peek_header(p);
      Tracer::Span s(&tracer_, SpanName::kDeliver, kind_of_message(hdr.type), hdr.op);
      h(from, p);
    };
  }
  inner_.bind(id, std::move(wrapped));
}

void TracedTransport::capture(const Payload& p) {
  if (!tracer_.recording()) return;
  AllocPause pause;
  std::lock_guard<std::mutex> lock(mu_);
  if (captured_.size() < kCaptureLimit) captured_.push_back(p);
}

std::vector<TracedTransport::Payload> TracedTransport::take_captured() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(captured_);
}

void TracedTransport::send(NodeId from, NodeId to, Payload payload) {
  const WireHeader hdr = peek_header(payload);
  capture(payload);
  Tracer::Span s(&tracer_, SpanName::kSend, kind_of_message(hdr.type), hdr.op);
  inner_.send(from, to, std::move(payload));
}

void TracedTransport::multicast(NodeId from, GroupId group, Payload payload) {
  const WireHeader hdr = peek_header(payload);
  capture(payload);
  Tracer::Span s(&tracer_, SpanName::kMulticast, kind_of_message(hdr.type), hdr.op);
  inner_.multicast(from, group, std::move(payload));
}

void TracedTransport::post(NodeId id, std::function<void()> fn) {
  std::function<void()> wrapped;
  {
    AllocPause pause;
    wrapped = [t = &tracer_, fn = std::move(fn)] {
      Tracer::Span s(t, SpanName::kCallback);
      fn();
    };
  }
  Tracer::Span s(&tracer_, SpanName::kPost);
  inner_.post(id, std::move(wrapped));
}

}  // namespace perfbench
