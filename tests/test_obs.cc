// Observability subsystem tests: minimal JSON round-trip, metrics registry
// (counters/gauges/sketches, labeled dimensions, snapshot and reload), the
// tracer's enable flag, and an end-to-end three-instance scenario
// proving that span events recorded at different instances join into one
// causal chain through the (origin, op_id) pair.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/instance.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace tiamat {
namespace {

using core::Config;
using core::Instance;
using obs::EventKind;
using obs::TraceEvent;
using tiamat::testing::World;
using tuples::any_int;
using tuples::Pattern;
using tuples::Tuple;

// ---------------- JSON ----------------

TEST(ObsJson, DumpParseRoundTrip) {
  obs::json::Object o;
  o.emplace_back("int", obs::json::Value(std::int64_t{9223372036854775807}));
  o.emplace_back("neg", obs::json::Value(std::int64_t{-42}));
  o.emplace_back("dbl", obs::json::Value(2.5));
  o.emplace_back("str", obs::json::Value(std::string("he\"llo\n")));
  o.emplace_back("flag", obs::json::Value(true));
  o.emplace_back("nil", obs::json::Value(nullptr));
  obs::json::Array a;
  a.emplace_back(std::int64_t{1});
  a.emplace_back(false);
  o.emplace_back("arr", obs::json::Value(std::move(a)));
  const obs::json::Value v{std::move(o)};

  const std::string compact = v.dump();
  auto back = obs::json::Value::parse(compact);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dump(), compact);

  // Ints survive exactly (not via double), and stay ints after reparse.
  const obs::json::Value* i = back->find("int");
  ASSERT_NE(i, nullptr);
  EXPECT_TRUE(i->is_int());
  EXPECT_EQ(i->as_int(), 9223372036854775807);

  // Indented output parses back to the same document.
  auto pretty = obs::json::Value::parse(v.dump(2));
  ASSERT_TRUE(pretty.has_value());
  EXPECT_EQ(pretty->dump(), compact);
}

TEST(ObsJson, RejectsMalformed) {
  EXPECT_FALSE(obs::json::Value::parse("{").has_value());
  EXPECT_FALSE(obs::json::Value::parse("[1,]").has_value());
  EXPECT_FALSE(obs::json::Value::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(obs::json::Value::parse("nope").has_value());
}

TEST(ObsJson, StringEscapesRoundTrip) {
  // Every escape the emitter can produce parses back to the same bytes.
  const std::string raw = "tab\t quote\" slash\\ nl\n cr\r bs\b ff\f ctl\x01";
  obs::json::Object o;
  o.emplace_back("s", obs::json::Value(raw));
  const std::string dumped = obs::json::Value{std::move(o)}.dump();
  auto back = obs::json::Value::parse(dumped);
  ASSERT_TRUE(back.has_value());
  ASSERT_NE(back->find("s"), nullptr);
  EXPECT_EQ(back->find("s")->as_string(), raw);

  // \uXXXX escapes in input decode (ASCII range used by \u-escaped control
  // characters in foreign dumps).
  auto u = obs::json::Value::parse("\"a\\u0041\\u000a\"");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->as_string(), "aA\n");

  // Truncated/invalid escapes are rejected, not mangled.
  EXPECT_FALSE(obs::json::Value::parse("\"\\u12\"").has_value());
  EXPECT_FALSE(obs::json::Value::parse("\"\\x41\"").has_value());
  EXPECT_FALSE(obs::json::Value::parse("\"unterminated").has_value());
}

TEST(ObsJson, NestedEmptyContainers) {
  const std::string text = "{\"a\":[],\"b\":{},\"c\":[[],{}],\"d\":[{},[[]]]}";
  auto v = obs::json::Value::parse(text);
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->find("a")->is_array());
  EXPECT_TRUE(v->find("a")->as_array().empty());
  EXPECT_TRUE(v->find("b")->is_object());
  EXPECT_TRUE(v->find("b")->as_object().empty());
  EXPECT_EQ(v->find("c")->as_array().size(), 2u);
  // Compact re-dump is canonical and reparses to the same document.
  const std::string dumped = v->dump();
  auto again = obs::json::Value::parse(dumped);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->dump(), dumped);
}

TEST(ObsJson, Int64BoundariesSurviveExactly) {
  const std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  obs::json::Object o;
  o.emplace_back("min", obs::json::Value(kMin));
  o.emplace_back("max", obs::json::Value(kMax));
  o.emplace_back("zero", obs::json::Value(std::int64_t{0}));
  const std::string dumped = obs::json::Value{std::move(o)}.dump();
  auto back = obs::json::Value::parse(dumped);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->find("min")->is_int());
  EXPECT_EQ(back->find("min")->as_int(), kMin);
  EXPECT_TRUE(back->find("max")->is_int());
  EXPECT_EQ(back->find("max")->as_int(), kMax);
  EXPECT_EQ(back->find("zero")->as_int(), 0);
  // A second round trip is byte-stable.
  EXPECT_EQ(back->dump(), dumped);
}

// ---------------- Metrics ----------------

TEST(ObsMetrics, CounterAndGaugeBasics) {
  obs::Registry r;
  obs::Counter& c = r.counter("hits");
  ++c;
  c += 4;
  c.add(5);
  EXPECT_EQ(c.value(), 10u);
  EXPECT_EQ(static_cast<std::uint64_t>(c), 10u);  // implicit read API

  obs::Gauge& g = r.gauge("depth");
  g.set(3.0);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(ObsMetrics, LabelsAreDimensionsAndOrderInsensitive) {
  obs::Registry r;
  obs::Counter& ab = r.counter("rpc", {{"peer", "2"}, {"op", "rd"}});
  obs::Counter& ba = r.counter("rpc", {{"op", "rd"}, {"peer", "2"}});
  obs::Counter& other = r.counter("rpc", {{"op", "in"}, {"peer", "2"}});
  EXPECT_EQ(&ab, &ba);  // canonicalized label order → same instrument
  EXPECT_NE(&ab, &other);
  ++ab;
  EXPECT_EQ(ba.value(), 1u);
  EXPECT_EQ(other.value(), 0u);
}

TEST(ObsMetrics, RegistrySnapshotJsonRoundTrip) {
  obs::Registry r;
  r.counter("op.started").add(7);
  r.counter("rpc.timeouts", {{"peer", "3"}}).add(2);
  r.gauge("lease.active").set(4);
  obs::QuantileSketch& lat = r.sketch("op.latency_us");
  lat.observe(250.0);
  lat.observe(90000.0);

  const std::string s1 = r.snapshot_json();
  auto doc = obs::json::Value::parse(s1);
  ASSERT_TRUE(doc.has_value());

  obs::Registry r2;
  ASSERT_TRUE(r2.load(*doc));
  EXPECT_EQ(r2.snapshot_json(), s1);
  EXPECT_EQ(r2.counter("op.started").value(), 7u);
  EXPECT_EQ(r2.counter("rpc.timeouts", {{"peer", "3"}}).value(), 2u);
  EXPECT_EQ(r2.sketch("op.latency_us").count(), 2u);
  EXPECT_DOUBLE_EQ(r2.sketch("op.latency_us").p50(), lat.p50());
}

// ---------------- Tracer ----------------

TEST(ObsTrace, DisabledRecordsNothing) {
  obs::Tracer t;
  auto sink = std::make_shared<obs::MemorySink>();
  t.set_sink(sink);
  t.set_enabled(false);
  t.record(TraceEvent{0, 1, 1, 1, EventKind::kOpIssued, sim::kNoNode, 0});
  EXPECT_TRUE(sink->events().empty());
}

TEST(ObsTrace, EventJsonHasStableSchema) {
  TraceEvent e;
  e.at = 1500;
  e.node = 2;
  e.origin = 1;
  e.op_id = 9;
  e.kind = EventKind::kServeMatch;
  e.peer = 1;
  e.detail = 3;
  auto v = e.to_json();
  ASSERT_NE(v.find("kind"), nullptr);
  EXPECT_EQ(v.find("kind")->as_string(), "serve_match");
  EXPECT_EQ(v.find("at")->as_int(), 1500);
  EXPECT_EQ(v.find("origin")->as_int(), 1);
  EXPECT_EQ(v.find("op")->as_int(), 9);
  ASSERT_TRUE(obs::json::Value::parse(v.dump()).has_value());
}

// ---------------- End-to-end causality ----------------

struct ObsFixture : ::testing::Test {
  World w;

  std::unique_ptr<Instance> make(const std::string& name,
                                 std::shared_ptr<obs::MemorySink> sink) {
    Config cfg;
    cfg.name = name;
    auto inst = std::make_unique<Instance>(w.tx, cfg);
    inst->tracer().set_sink(std::move(sink));  // implies enabled
    return inst;
  }

  static std::vector<TraceEvent> of_op(const obs::MemorySink& sink,
                                       sim::NodeId origin,
                                       std::uint64_t op_id) {
    std::vector<TraceEvent> out;
    for (const TraceEvent& e : sink.events()) {
      if (e.origin == origin && e.op_id == op_id) out.push_back(e);
    }
    return out;
  }

  static std::size_t count_kind(const std::vector<TraceEvent>& ev,
                                EventKind k) {
    return static_cast<std::size_t>(
        std::count_if(ev.begin(), ev.end(),
                      [k](const TraceEvent& e) { return e.kind == k; }));
  }

  static std::ptrdiff_t first_index(const std::vector<TraceEvent>& ev,
                                    EventKind k) {
    auto it = std::find_if(ev.begin(), ev.end(),
                           [k](const TraceEvent& e) { return e.kind == k; });
    return it == ev.end() ? -1 : it - ev.begin();
  }
};

// One remote `in` over three instances where TWO responders both hold a
// match: both tentatively remove their tuple, exactly one accept wins, the
// loser provably puts its tuple back — all stitched together by the
// (origin, op_id) pair across the three per-instance traces.
TEST_F(ObsFixture, RemoteInCausalChainAcrossThreeInstances) {
  auto sink_a = std::make_shared<obs::MemorySink>();
  auto sink_b = std::make_shared<obs::MemorySink>();
  auto sink_c = std::make_shared<obs::MemorySink>();
  auto a = make("a", sink_a);
  auto b = make("b", sink_b);
  auto c = make("c", sink_c);

  b->out(Tuple{"job", 7});
  c->out(Tuple{"job", 7});
  w.run_for(sim::milliseconds(10));

  std::optional<core::ReadResult> got;
  a->in(Pattern{"job", any_int()}, [&](auto r) { got = std::move(r); });
  w.run_for(sim::seconds(5));

  ASSERT_TRUE(got.has_value());
  EXPECT_NE(got->source, a->node());

  // The op id is whatever the originator stamped on kOpIssued.
  const auto issued = std::find_if(
      sink_a->events().begin(), sink_a->events().end(),
      [](const TraceEvent& e) { return e.kind == EventKind::kOpIssued; });
  ASSERT_NE(issued, sink_a->events().end());
  const std::uint64_t op = issued->op_id;
  EXPECT_EQ(issued->origin, a->node());

  // ---- Originator-side chain, in causal order.
  const auto at_a = of_op(*sink_a, a->node(), op);
  const auto i_issued = first_index(at_a, EventKind::kOpIssued);
  const auto i_lease = first_index(at_a, EventKind::kLeaseGranted);
  const auto i_req = first_index(at_a, EventKind::kPeerRequest);
  const auto i_resp = first_index(at_a, EventKind::kPeerResponse);
  const auto i_accept = first_index(at_a, EventKind::kAccept);
  ASSERT_GE(i_issued, 0);
  ASSERT_GT(i_lease, i_issued);
  ASSERT_GT(i_req, i_lease);
  ASSERT_GT(i_resp, i_req);
  ASSERT_GT(i_accept, i_resp);
  // Fan-out reached both remote responders.
  EXPECT_EQ(count_kind(at_a, EventKind::kPeerRequest), 2u);
  // Exactly one accept; the winner is also confirmed (destructive op).
  EXPECT_EQ(count_kind(at_a, EventKind::kAccept), 1u);
  EXPECT_EQ(count_kind(at_a, EventKind::kConfirm), 1u);
  EXPECT_EQ(at_a[static_cast<std::size_t>(i_accept)].peer, got->source);

  // ---- Serving side. Both responders record the same (origin, op_id).
  const auto at_b = of_op(*sink_b, a->node(), op);
  const auto at_c = of_op(*sink_c, a->node(), op);
  EXPECT_EQ(count_kind(at_b, EventKind::kServeStart), 1u);
  EXPECT_EQ(count_kind(at_c, EventKind::kServeStart), 1u);
  EXPECT_EQ(count_kind(at_b, EventKind::kServeMatch) +
                count_kind(at_c, EventKind::kServeMatch),
            2u);  // both tentatively removed their match

  // Exactly one winner confirms; the other provably reinserts.
  EXPECT_EQ(count_kind(at_b, EventKind::kServeConfirm) +
                count_kind(at_c, EventKind::kServeConfirm),
            1u);
  EXPECT_EQ(count_kind(at_b, EventKind::kServeReinsert) +
                count_kind(at_c, EventKind::kServeReinsert),
            1u);
  Instance& winner = got->source == b->node() ? *b : *c;
  Instance& loser = got->source == b->node() ? *c : *b;
  EXPECT_EQ(winner.monitor().counters().tuples_reinserted, 0u);
  EXPECT_EQ(loser.monitor().counters().tuples_reinserted, 1u);

  // The reinserted tuple is really back: one consumed, one remains.
  EXPECT_EQ(loser.local_space().count_matches(Pattern{"job", any_int()}), 1u);

  // The same numbers are visible through the registry (single source of
  // truth for Monitor counters).
  EXPECT_EQ(loser.metrics().counter("serve.reinserted").value(), 1u);
  EXPECT_EQ(a->metrics().counter("op.satisfied_remote").value(), 1u);
  EXPECT_EQ(a->metrics().sketch("op.latency_us").count(), 1u);
  EXPECT_EQ(a->metrics().sketch("op.latency_us", {{"op", "in"}}).count(), 1u);
}

// Churn: a cached responder that stops answering shows up as a per-peer
// timeout, both in the trace and in the labeled registry counter.
TEST_F(ObsFixture, PeerTimeoutIsTracedAndCountedPerPeer) {
  auto sink_a = std::make_shared<obs::MemorySink>();
  auto a = make("a", sink_a);
  auto b = make("b", std::make_shared<obs::MemorySink>());

  b->out(Tuple{"x", 1});
  std::optional<core::ReadResult> first;
  a->rdp(Pattern{"x", any_int()}, [&](auto r) { first = std::move(r); });
  w.run_for(sim::seconds(2));
  ASSERT_TRUE(first.has_value());  // b is now a cached responder

  w.net.set_online(b->node(), false);
  bool done = false;
  a->rdp(Pattern{"x", any_int()}, [&](auto r) {
    done = true;
    EXPECT_FALSE(r.has_value());
  });
  w.run_for(sim::seconds(10));
  ASSERT_TRUE(done);

  EXPECT_EQ(a->monitor().counters().rpc_timeouts, 1u);
  EXPECT_EQ(a->metrics()
                .counter("rpc.timeouts",
                         {{"peer", std::to_string(b->node())}})
                .value(),
            1u);
  const auto& events = sink_a->events();
  EXPECT_EQ(std::count_if(events.begin(), events.end(),
                          [&](const TraceEvent& e) {
                            return e.kind == EventKind::kPeerTimeout &&
                                   e.peer == b->node();
                          }),
            1);
}

}  // namespace
}  // namespace tiamat
