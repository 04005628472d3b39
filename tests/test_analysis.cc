// Causal trace analysis tests: joining per-instance trace dumps into
// OpTimelines with stage latency attribution, Chrome trace-event export
// (flow events across instances, Perfetto-loadable JSON), deterministic
// same-seed reports, JSONL round-trips, and the always-on flight recorder
// feeding audit trap reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "core/instance.h"
#include "obs/analysis.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace tiamat {
namespace {

using core::Config;
using core::Instance;
using obs::EventKind;
using obs::OpOutcome;
using obs::OpTimeline;
using obs::TraceAnalysis;
using obs::TraceEvent;
using tiamat::testing::World;
using tuples::any_int;
using tuples::Pattern;
using tuples::Tuple;

// Three instances; two hold a match for the `in`, so the trace contains a
// fan-out, two tentative removes, one accept, one reinsert. Returns the
// sinks in node order (the deterministic join order).
struct Scenario {
  std::vector<std::shared_ptr<obs::MemorySink>> sinks;
  sim::NodeId origin = sim::kNoNode;
  sim::NodeId winner = sim::kNoNode;
};

Scenario run_remote_in(World& w) {
  Scenario s;
  std::vector<std::unique_ptr<Instance>> nodes;
  for (const char* name : {"a", "b", "c"}) {
    Config cfg;
    cfg.name = name;
    auto sink = std::make_shared<obs::MemorySink>();
    nodes.push_back(std::make_unique<Instance>(w.tx, cfg));
    nodes.back()->tracer().set_sink(sink);
    s.sinks.push_back(std::move(sink));
  }
  nodes[1]->out(Tuple{"job", 7});
  nodes[2]->out(Tuple{"job", 7});
  w.run_for(sim::milliseconds(10));

  std::optional<core::ReadResult> got;
  nodes[0]->in(Pattern{"job", any_int()}, [&](auto r) { got = std::move(r); });
  w.run_for(sim::seconds(5));
  EXPECT_TRUE(got.has_value());
  s.origin = nodes[0]->node();
  s.winner = got ? got->source : sim::kNoNode;
  return s;
}

TraceAnalysis join(const Scenario& s) {
  TraceAnalysis a;
  for (const auto& sink : s.sinks) a.add_all(sink->events());
  return a;
}

const OpTimeline* find_in_op(const std::vector<OpTimeline>& ts,
                             sim::NodeId origin) {
  for (const OpTimeline& t : ts) {
    if (t.key.origin == origin && std::string(t.kind_name()) == "in") {
      return &t;
    }
  }
  return nullptr;
}

// ---------------- Timeline joining + stage attribution ----------------

TEST(Analysis, JoinsRemoteInAcrossThreeInstances) {
  World w;
  Scenario s = run_remote_in(w);
  TraceAnalysis a = join(s);
  EXPECT_GT(a.event_count(), 0u);

  const auto timelines = a.timelines();
  const OpTimeline* t = find_in_op(timelines, s.origin);
  ASSERT_NE(t, nullptr);

  EXPECT_EQ(t->outcome, OpOutcome::kAccepted);
  EXPECT_EQ(t->accept_source, s.winner);
  EXPECT_EQ(t->fanout, 2u);        // both remote responders contacted
  EXPECT_GE(t->reinserts, 1u);     // the loser put its match back
  EXPECT_GE(t->nodes.size(), 3u);  // origin + both responders
  EXPECT_TRUE(std::is_sorted(t->nodes.begin(), t->nodes.end()));

  // Events are merged in virtual-time order and tell one causal story.
  for (std::size_t i = 1; i < t->events.size(); ++i) {
    EXPECT_LE(t->events[i - 1].at, t->events[i].at);
  }

  // Stage attribution decomposes the accepted latency exactly.
  const auto& st = t->stages;
  EXPECT_GT(st.total_us, 0);
  EXPECT_GE(st.lease_us, 0);
  EXPECT_GE(st.queue_us, 0);
  // The responder already held the match, so serve_start -> serve_match is
  // same-event (0us) and the wire dominates: network carries the latency.
  EXPECT_GE(st.match_us, 0);
  EXPECT_GT(st.network_us, 0);  // two wire hops minimum
  EXPECT_EQ(st.lease_us + st.queue_us + st.match_us + st.network_us,
            st.total_us);
}

TEST(Analysis, ReportAggregatesOutcomesAndStages) {
  World w;
  Scenario s = run_remote_in(w);
  TraceAnalysis a = join(s);

  const obs::json::Value rep = a.report();
  ASSERT_NE(rep.find("ops"), nullptr);
  EXPECT_GE(rep.find("ops")->as_int(), 1);
  const obs::json::Value* outcomes = rep.find("outcomes");
  ASSERT_NE(outcomes, nullptr);
  ASSERT_NE(outcomes->find("accepted"), nullptr);
  EXPECT_GE(outcomes->find("accepted")->as_int(), 1);

  // Per-kind section carries the stage means for accepted ops.
  const obs::json::Value* by_kind = rep.find("by_kind");
  ASSERT_NE(by_kind, nullptr);
  bool saw_in = false;
  for (const obs::json::Value& k : by_kind->as_array()) {
    if (k.find("kind") != nullptr && k.find("kind")->as_string() == "in") {
      saw_in = true;
      ASSERT_NE(k.find("accepted_stage_mean_us"), nullptr);
    }
  }
  EXPECT_TRUE(saw_in);

  // The human rendering mentions the same facts.
  const std::string text = a.report_text();
  EXPECT_NE(text.find("accepted"), std::string::npos);
  EXPECT_NE(text.find("in"), std::string::npos);

  // The machine report is valid JSON end to end.
  EXPECT_TRUE(obs::json::Value::parse(rep.dump(2)).has_value());
}

TEST(Analysis, OrphanedOpsAreReported) {
  TraceAnalysis a;
  a.add(TraceEvent{100, 1, 1, 42, EventKind::kOpIssued, sim::kNoNode, 2});
  a.add(TraceEvent{200, 1, 1, 42, EventKind::kLeaseGranted, sim::kNoNode, 0});
  const auto ts = a.timelines();
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].outcome, OpOutcome::kOrphaned);

  const obs::json::Value rep = a.report();
  ASSERT_NE(rep.find("orphan_count"), nullptr);
  EXPECT_EQ(rep.find("orphan_count")->as_int(), 1);
}

// ---------------- Determinism: same seed, byte-identical output --------

TEST(Analysis, SameSeedYieldsByteIdenticalReports) {
  auto run_once = [] {
    World w;  // fixed default seed
    Scenario s = run_remote_in(w);
    TraceAnalysis a = join(s);
    return std::make_pair(a.report_text(),
                          obs::to_chrome_trace(a.timelines()).dump(2));
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

// ---------------- JSONL round-trip ----------------

TEST(Analysis, JsonlRoundTripMatchesDirectJoin) {
  World w;
  Scenario s = run_remote_in(w);

  std::string jsonl;
  for (const auto& sink : s.sinks) {
    for (const TraceEvent& e : sink->events()) {
      jsonl += e.to_json().dump();
      jsonl += '\n';
    }
  }

  TraceAnalysis direct = join(s);
  TraceAnalysis parsed;
  std::size_t rejected = 0;
  const std::size_t n = parsed.add_jsonl(jsonl, &rejected);
  EXPECT_EQ(rejected, 0u);
  EXPECT_EQ(n, direct.event_count());
  EXPECT_EQ(parsed.report_text(), direct.report_text());
}

TEST(Analysis, JsonlRejectsMalformedLinesButKeepsGoing) {
  TraceAnalysis a;
  const std::string text =
      "not json\n"
      "\n"  // blank lines are fine
      "{\"at\":5,\"node\":1,\"origin\":1,\"op\":9,\"kind\":\"op_issued\","
      "\"detail\":0}\n"
      "{\"at\":6,\"node\":1,\"origin\":1,\"op\":9,\"kind\":\"no_such_kind\"}\n"
      "{\"kind\":\"accept\"}\n";  // missing required fields
  std::size_t rejected = 0;
  EXPECT_EQ(a.add_jsonl(text, &rejected), 1u);
  EXPECT_EQ(rejected, 3u);
  EXPECT_EQ(a.event_count(), 1u);
}

TEST(Analysis, TraceEventFromJsonInverseOfToJson) {
  TraceEvent e{1500, 2, 1, 9, EventKind::kServeMatch, 1, 3};
  const auto back = TraceEvent::from_json(e.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->at, e.at);
  EXPECT_EQ(back->node, e.node);
  EXPECT_EQ(back->origin, e.origin);
  EXPECT_EQ(back->op_id, e.op_id);
  EXPECT_EQ(back->kind, e.kind);
  EXPECT_EQ(back->peer, e.peer);
  EXPECT_EQ(back->detail, e.detail);
}

// ---------------- Chrome trace-event export ----------------

TEST(Analysis, ChromeTraceHasTracksAndCrossInstanceFlows) {
  World w;
  Scenario s = run_remote_in(w);
  TraceAnalysis a = join(s);

  const obs::json::Value doc = obs::to_chrome_trace(a.timelines());

  // The export round-trips through the obs JSON parser (acceptance bar).
  const auto reparsed = obs::json::Value::parse(doc.dump(2));
  ASSERT_TRUE(reparsed.has_value());
  const obs::json::Value* events = reparsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::set<std::int64_t> tids;
  std::set<std::int64_t> flow_starts;
  std::set<std::int64_t> flow_finishes;
  std::set<std::string> flow_names;
  for (const obs::json::Value& e : events->as_array()) {
    const obs::json::Value* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    const std::string& p = ph->as_string();
    if (p != "M") tids.insert(e.find("tid")->as_int());
    if (p == "s") {
      flow_starts.insert(e.find("id")->as_int());
      flow_names.insert(e.find("name")->as_string());
    }
    if (p == "f") {
      flow_finishes.insert(e.find("id")->as_int());
      EXPECT_EQ(e.find("bp")->as_string(), "e");
    }
  }

  // One track per instance, and the `in`'s fan-out/accept/reinsert edges
  // link >= 3 instances.
  EXPECT_GE(tids.size(), 3u);
  EXPECT_FALSE(flow_starts.empty());
  EXPECT_EQ(flow_starts, flow_finishes);  // every arrow has both ends
  EXPECT_TRUE(flow_names.count("fan-out") == 1);
  EXPECT_TRUE(flow_names.count("accept") == 1);
  EXPECT_TRUE(flow_names.count("reinsert") == 1);
}

// ---------------- Flight recorder ----------------

TEST(FlightRecorder, AlwaysRecordsEvenWithTracingDisabled) {
  World w;
  Config cfg;
  cfg.name = "f";
  Instance a(w.tx, cfg);
  Instance b(w.tx, cfg);
  ASSERT_FALSE(a.tracer().enabled());

  b.out(Tuple{"k", 1});
  std::optional<core::ReadResult> r;
  a.rdp(Pattern{"k", any_int()}, [&](auto res) { r = std::move(res); });
  w.run_for(sim::seconds(2));
  ASSERT_TRUE(r.has_value());

  EXPECT_GT(a.flight_recorder().recorded(), 0u);  // flight ring: always on
  EXPECT_LE(a.flight_recorder().tail().size(),
            a.flight_recorder().capacity());
}

TEST(FlightRecorder, RingBoundsAndKeepsNewestOldestFirst) {
  obs::FlightRecorder fr(/*node=*/7, /*capacity=*/4);
  for (std::uint64_t i = 0; i < 9; ++i) {
    fr.record(TraceEvent{static_cast<sim::Time>(i), 7, 7, i,
                         EventKind::kOpIssued, sim::kNoNode, 0});
  }
  EXPECT_EQ(fr.recorded(), 9u);
  const auto tail = fr.tail();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().op_id, 5u);
  EXPECT_EQ(tail.back().op_id, 8u);
  for (std::size_t i = 1; i < tail.size(); ++i) {
    EXPECT_LT(tail[i - 1].op_id, tail[i].op_id);
  }
}

TEST(FlightRecorder, AuditTrapReportIncludesFlightTail) {
  World w;
  Config cfg;
  cfg.name = "f";
  Instance a(w.tx, cfg);
  a.out(Tuple{"k", 1});
  std::optional<core::ReadResult> r;
  a.rdp(Pattern{"k", any_int()}, [&](auto res) { r = std::move(res); });
  w.run_for(sim::seconds(1));
  ASSERT_TRUE(r.has_value());
  ASSERT_GT(a.flight_recorder().recorded(), 0u);

  std::string report;
  audit::set_failure_handler([&](const std::string& rep) { report = rep; });
  audit::fail("TestComponent", "checkpoint", "synthetic", "detail");
  audit::set_failure_handler(nullptr);

  // The trap diagnostic carries the invariant context AND the recent
  // causal history of every live instance.
  EXPECT_NE(report.find("TestComponent"), std::string::npos);
  EXPECT_NE(report.find("flight recorder"), std::string::npos);
  EXPECT_NE(report.find("node " + std::to_string(a.node())),
            std::string::npos);
  EXPECT_NE(report.find("op_issued"), std::string::npos);
}

TEST(FlightRecorder, DumpCoversOnlyLiveRecorders) {
  const std::size_t before = obs::FlightRecorder::live_count();
  {
    obs::FlightRecorder fr(/*node=*/9, /*capacity=*/2);
    fr.record(TraceEvent{1, 9, 9, 1, EventKind::kAccept, 9, 0});
    EXPECT_EQ(obs::FlightRecorder::live_count(), before + 1);
    EXPECT_NE(obs::FlightRecorder::dump_all().find("node 9"),
              std::string::npos);
  }
  EXPECT_EQ(obs::FlightRecorder::live_count(), before);
}

}  // namespace
}  // namespace tiamat
