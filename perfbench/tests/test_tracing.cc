// Tests of the benchmark's own measurement code: span self-time arithmetic,
// quantiles read from a sketch, and that the tracing decorators only
// forward.

#include <gtest/gtest.h>

#include "core/instance.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "traced_transport.h"
#include "tracing.h"
#include "transport/sim_transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace transport = tiamat::transport;

std::int64_t g_now = 0;
std::int64_t fake_clock() { return g_now; }

TEST(Spans, SelfTimeIsDurationMinusDirectChildren) {
  Tracer t(fake_clock);
  t.set_recording(true);
  {
    g_now = 0;
    Tracer::Span call(&t, SpanName::kCall, kKindOut);
    {
      g_now = 10;
      Tracer::Span send(&t, SpanName::kSend, 11);
      {
        g_now = 12;
        Tracer::Span offer(&t, SpanName::kOffer);
        g_now = 13;
      }
      g_now = 15;
    }
    {
      g_now = 20;
      Tracer::Span sched(&t, SpanName::kSchedule);
      g_now = 24;
    }
    g_now = 30;
  }
  EXPECT_EQ(t.totals(SpanName::kCall).dur_ns, 30);
  EXPECT_EQ(t.totals(SpanName::kCall).self_ns, 30 - 5 - 4);
  EXPECT_EQ(t.totals(SpanName::kSend).dur_ns, 5);
  EXPECT_EQ(t.totals(SpanName::kSend).self_ns, 5 - 1);
  EXPECT_EQ(t.totals(SpanName::kOffer).self_ns, 1);
  EXPECT_EQ(t.totals(SpanName::kSchedule).self_ns, 4);
  // Self times partition the root span: they sum to its duration.
  EXPECT_EQ(t.total_self_ns(), 30);
}

TEST(Spans, KindlessSpansInheritTheirParentsKind) {
  Tracer t(fake_clock);
  t.set_recording(true);
  {
    g_now = 100;
    Tracer::Span deliver(&t, SpanName::kDeliver, 11);
    {
      g_now = 101;
      Tracer::Span post(&t, SpanName::kPost);
      g_now = 104;
    }
    {
      Tracer::Span call(&t, SpanName::kCall, kKindInp);
      {
        Tracer::Span offer(&t, SpanName::kOffer);
      }
    }
    g_now = 110;
  }
  EXPECT_EQ(t.totals(SpanName::kPost, 11).count, 1u);
  EXPECT_EQ(t.totals(SpanName::kPost, 11).dur_ns, 3);
  EXPECT_EQ(t.totals(SpanName::kCall, kKindInp).count, 1u);
  EXPECT_EQ(t.totals(SpanName::kOffer, kKindInp).count, 1u);
  EXPECT_EQ(t.totals(SpanName::kDeliver, 11).self_ns, 10 - 3);
}

TEST(Spans, SpansOpenOnlyWhileRecording) {
  Tracer t(fake_clock);
  {
    Tracer::Span off(&t, SpanName::kCall);
    t.set_recording(true);
    g_now = 5;
    Tracer::Span on(&t, SpanName::kSend);
    g_now = 7;
  }
  EXPECT_EQ(t.totals(SpanName::kCall).count, 0u);
  EXPECT_EQ(t.totals(SpanName::kSend).count, 1u);
  Tracer::Span null_tracer(nullptr, SpanName::kCall);  // a no-op
}

TEST(Quantiles, InterpolateInsideTheSketchBucket) {
  tiamat::obs::QuantileSketch s;
  for (int v = 0; v < 1000; ++v) s.observe(v);
  // The sketch itself reports bucket edges: nearby quantiles read the same.
  EXPECT_EQ(s.quantile(0.50), s.quantile(0.502));
  const double p50 = interpolated_quantile(s, 0.50);
  EXPECT_NEAR(p50, 499.5, 1.0);
  EXPECT_LT(p50, interpolated_quantile(s, 0.502));
  EXPECT_NEAR(interpolated_quantile(s, 0.99), 989.0, 1.0);
  EXPECT_EQ(interpolated_quantile(tiamat::obs::QuantileSketch{}, 0.5), 0.0);
  // Exact below 32: five samples of 7 and one of 9.
  tiamat::obs::QuantileSketch small;
  for (int i = 0; i < 5; ++i) small.observe(7);
  small.observe(9);
  EXPECT_GE(interpolated_quantile(small, 0.5), 7.0);
  EXPECT_LT(interpolated_quantile(small, 0.5), 8.0);
  EXPECT_GE(interpolated_quantile(small, 1.0), 9.0);
}

TEST(WireHeader, ReadsTypeAndOpIdWithoutDecoding) {
  tiamat::net::Message m;
  m.type = tiamat::net::kOpResponse;
  m.op_id = 0x0102030405060708ull;
  m.h(true);
  const WireHeader h = peek_header(tiamat::net::encode_message(m));
  EXPECT_EQ(h.type, tiamat::net::kOpResponse);
  EXPECT_EQ(h.op, 0x0102030405060708ull);
}

// Two sim worlds of one seed, one behind the decorators: every observable
// outcome of the same scenario must be identical.
struct World {
  explicit World(std::uint64_t seed, Tracer* tracer) : rng(seed), net(queue, rng), sim_tx(net) {
    if (tracer != nullptr) traced = std::make_unique<TracedTransport>(sim_tx, *tracer);
  }
  transport::Transport& tx() {
    return traced ? static_cast<transport::Transport&>(*traced)
                  : static_cast<transport::Transport&>(sim_tx);
  }
  tiamat::sim::EventQueue queue;
  tiamat::sim::Rng rng;
  tiamat::sim::Network net;
  transport::SimTransport sim_tx;
  std::unique_ptr<TracedTransport> traced;
};

struct Outcome {
  std::vector<std::uint64_t> rng_draws;
  std::vector<transport::TimerId> timer_ids;
  std::vector<transport::Payload> received;
  std::vector<std::string> results;
  transport::Time end = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome scenario(Tracer* tracer) {
  World w(7, tracer);
  transport::Transport& tx = w.tx();
  Outcome o;
  transport::Rng r1 = tx.fork_rng();
  transport::Rng r2 = tx.fork_rng();
  o.rng_draws = {static_cast<std::uint64_t>(r1.uniform(0, 1 << 30)),
                 static_cast<std::uint64_t>(r2.uniform(0, 1 << 30))};
  {
    tiamat::core::Instance a(tx, tiamat::core::Config{});
    tiamat::core::Instance b(tx, tiamat::core::Config{});
    // A raw listener node records the bytes it is multicast.
    const transport::NodeId listener = tx.add_node();
    tx.bind(listener, [&](transport::NodeId, const transport::Payload& p) {
      o.received.push_back(p);
    });
    tx.join_group(listener, 1);
    tx.multicast(a.node(), 1, transport::Payload{1, 2, 3});
    transport::TimerService& timers = tx.timers(a.node());
    o.timer_ids.push_back(timers.schedule_after(5, [] {}));
    o.timer_ids.push_back(timers.schedule_after(9, [] {}));
    EXPECT_EQ(timers.cancel(o.timer_ids[1]), true);
    b.out(tiamat::tuples::Tuple{"k", std::int64_t{1}});
    b.out(tiamat::tuples::Tuple{"k", std::int64_t{2}});
    for (int i = 0; i < 3; ++i) {
      auto r = tiamat::core::run_inp(a, tiamat::tuples::Pattern{"k", tiamat::tuples::any_int()});
      o.results.push_back(r ? r->tuple.to_string() : "none");
    }
    w.queue.run_until_idle();
  }
  o.end = w.queue.now();
  o.msgs = w.net.stats().unicasts_sent + w.net.stats().multicasts_sent;
  o.bytes = w.net.stats().bytes_sent;
  return o;
}

TEST(TracedTransport, OnlyForwards) {
  Tracer t;
  t.set_recording(true);
  const Outcome plain = scenario(nullptr);
  const Outcome traced = scenario(&t);
  EXPECT_EQ(plain, traced);
  EXPECT_EQ(plain.results[2], "none");
  EXPECT_FALSE(plain.received.empty());
  EXPECT_GT(t.totals(SpanName::kSend).count, 0u);
  EXPECT_GT(t.totals(SpanName::kDeliver).count, 0u);
  EXPECT_GT(t.totals(SpanName::kSchedule).count, 0u);
  EXPECT_EQ(t.totals(SpanName::kMulticast).count >= 1, true);
}

}  // namespace
}  // namespace perfbench
