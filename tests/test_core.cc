// Integration tests for the Tiamat core: opportunistic logical tuple
// spaces, operation propagation, first-response-wins with loser
// reinsertion, leasing of operations, directed remote operations, handle
// discovery, and behaviour under visibility change.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/instance.h"
#include "core/routing.h"
#include "tests/test_util.h"

namespace tiamat::core {
namespace {

using tuples::any;
using tuples::any_int;
using tuples::any_string;
using tiamat::testing::World;

Config fast_config(const std::string& name = "t") {
  Config cfg;
  cfg.name = name;
  return cfg;
}

/// Policy caps that keep default leases snappy in tests.
Config with_ttl(Config cfg, sim::Duration ttl) {
  cfg.lease_caps.default_ttl = ttl;
  cfg.lease_caps.max_ttl = ttl;
  return cfg;
}

struct CoreFixture : ::testing::Test {
  World w;

  std::unique_ptr<Instance> make(const std::string& name = "t",
                                 Config cfg = {}) {
    cfg.name = name;
    return std::make_unique<Instance>(w.tx, cfg);
  }
};

// ---------------- Purely local operation ----------------

TEST_F(CoreFixture, IsolatedInstanceWorksAlone) {
  auto a = make("solo");
  EXPECT_EQ(a->out(Tuple{"x", 1}), Status::kOk);
  auto r = run_rdp(*a, Pattern{"x", any_int()});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->tuple[1].as_int(), 1);
  EXPECT_EQ(r->source, a->node());
}

TEST_F(CoreFixture, LocalInConsumes) {
  auto a = make();
  a->out(Tuple{"x", 1});
  auto r = run_in(*a, Pattern{"x", any_int()});
  ASSERT_TRUE(r.has_value());
  // It is gone afterwards (logical space now empty of "x").
  auto r2 = run_inp(*a, Pattern{"x", any_int()});
  EXPECT_FALSE(r2.has_value());
}

TEST_F(CoreFixture, OutDefaultsToLocalSpaceOnly) {
  auto a = make("a");
  auto b = make("b");
  a->out(Tuple{"mine", 1});
  w.run_for(sim::milliseconds(100));
  EXPECT_EQ(b->local_space().count_matches(Pattern{"mine", any_int()}), 0u);
  EXPECT_EQ(a->local_space().count_matches(Pattern{"mine", any_int()}), 1u);
}

// ---------------- Logical space across two instances ----------------

TEST_F(CoreFixture, RdpReachesVisibleInstance) {
  auto a = make("a");
  auto b = make("b");
  b->out(Tuple{"remote", 42});
  auto r = run_rdp(*a, Pattern{"remote", any_int()});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->tuple[1].as_int(), 42);
  EXPECT_EQ(r->source, b->node());
  // Non-destructive: b still has it.
  EXPECT_EQ(b->local_space().count_matches(Pattern{"remote", any_int()}), 1u);
}

TEST_F(CoreFixture, InpTakesFromRemoteExactlyOnce) {
  auto a = make("a");
  auto b = make("b");
  b->out(Tuple{"take", 1});
  auto r = run_inp(*a, Pattern{"take", any_int()});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->source, b->node());
  w.run_for(sim::seconds(2));  // let confirms settle
  EXPECT_EQ(b->local_space().count_matches(Pattern{"take", any_int()}), 0u);
  EXPECT_EQ(b->local_space().tentative_count(), 0u);
  // A second attempt finds nothing anywhere.
  auto r2 = run_inp(*a, Pattern{"take", any_int()});
  EXPECT_FALSE(r2.has_value());
}

TEST_F(CoreFixture, BlockingRdWaitsForRemoteOut) {
  auto a = make("a");
  auto b = make("b");
  std::optional<ReadResult> got;
  bool fired = false;
  ASSERT_TRUE(a->rd(Pattern{"later", any_int()}, [&](auto r) {
    got = r;
    fired = true;
  }));
  w.run_for(sim::milliseconds(300));
  EXPECT_FALSE(fired);
  b->out(Tuple{"later", 7});
  w.run_for(sim::seconds(1));
  ASSERT_TRUE(fired);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tuple[1].as_int(), 7);
  EXPECT_EQ(got->source, b->node());
}

TEST_F(CoreFixture, BlockingInTakesRemoteArrival) {
  auto a = make("a");
  auto b = make("b");
  std::optional<ReadResult> got;
  ASSERT_TRUE(a->in(Pattern{"job", any_int()}, [&](auto r) { got = r; }));
  w.run_for(sim::milliseconds(200));
  b->out(Tuple{"job", 1});
  w.run_for(sim::seconds(2));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(b->local_space().count_matches(Pattern{"job", any_int()}), 0u);
  EXPECT_EQ(b->local_space().tentative_count(), 0u);
}

TEST_F(CoreFixture, NoMatchAnywhereReturnsNullopt) {
  auto a = make("a");
  auto b = make("b");
  auto r = run_rdp(*a, Pattern{"ghost"});
  EXPECT_FALSE(r.has_value());
}

// ---------------- First-response-wins & exactly-once removal ----------------

TEST_F(CoreFixture, CompetingTakersGetDistinctTuples) {
  auto a = make("a");
  auto b = make("b");
  auto c = make("c");
  c->out(Tuple{"item", 1});
  c->out(Tuple{"item", 2});

  std::vector<std::int64_t> taken;
  int fired = 0;
  ASSERT_TRUE(a->inp(Pattern{"item", any_int()}, [&](auto r) {
    ++fired;
    if (r) taken.push_back(r->tuple[1].as_int());
  }));
  ASSERT_TRUE(b->inp(Pattern{"item", any_int()}, [&](auto r) {
    ++fired;
    if (r) taken.push_back(r->tuple[1].as_int());
  }));
  w.run_for(sim::seconds(3));
  EXPECT_EQ(fired, 2);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_NE(taken[0], taken[1]) << "a tuple was taken twice";
  EXPECT_EQ(c->local_space().count_matches(Pattern{"item", any_int()}), 0u);
  EXPECT_EQ(c->local_space().tentative_count(), 0u);
}

TEST_F(CoreFixture, SingleTupleGoesToExactlyOneOfManyTakers) {
  auto holder = make("holder");
  holder->out(Tuple{"one"});
  std::vector<std::unique_ptr<Instance>> takers;
  int got = 0, missed = 0;
  for (int i = 0; i < 4; ++i) {
    takers.push_back(make("taker" + std::to_string(i)));
  }
  for (auto& t : takers) {
    ASSERT_TRUE(t->inp(Pattern{"one"}, [&](auto r) {
      if (r) {
        ++got;
      } else {
        ++missed;
      }
    }));
  }
  w.run_for(sim::seconds(3));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(missed, 3);
  EXPECT_EQ(holder->local_space().tentative_count(), 0u);
  EXPECT_EQ(holder->local_space().count_matches(Pattern{"one"}), 0u);
}

TEST_F(CoreFixture, LosersTupleRemainsReadable) {
  // Two instances each hold a matching tuple; a destructive op takes one,
  // and the other is released back ("the others should remain in their
  // spaces").
  auto a = make("a");
  auto b = make("b");
  auto c = make("c");
  b->out(Tuple{"m", 1});
  c->out(Tuple{"m", 2});
  auto r = run_inp(*a, Pattern{"m", any_int()});
  ASSERT_TRUE(r.has_value());
  w.run_for(sim::seconds(2));
  const std::size_t left =
      b->local_space().count_matches(Pattern{"m", any_int()}) +
      c->local_space().count_matches(Pattern{"m", any_int()});
  EXPECT_EQ(left, 1u);
  EXPECT_EQ(b->local_space().tentative_count(), 0u);
  EXPECT_EQ(c->local_space().tentative_count(), 0u);
}

// ---------------- Leasing of operations ----------------

/// Every work counter of the local space and its index, for "did this
/// search the space?" comparisons.
std::vector<std::uint64_t> space_work(Instance& i) {
  const space::SpaceStats& s = i.local_space().stats();
  auto engine = [&i](const char* name) {
    return i.metrics().counter(name).value();
  };
  return {s.outs,
          s.reads,
          s.takes,
          s.hits,
          engine("match.bucket_probes"),
          engine("match.scan_fallbacks"),
          engine("match.candidates"),
          engine("match.rejected")};
}

TEST_F(CoreFixture, LeaseRefusalFailsOperationBeforeAnyWork) {
  Config cfg;
  cfg.name = "denied";
  auto a = std::make_unique<Instance>(w.tx, cfg,
                                      std::make_unique<lease::DenyAllPolicy>());
  // A match is present, so any op that searched would find it.
  a->local_space().out(Tuple{"x"});
  const auto work_before = space_work(*a);
  bool cb_fired = false;
  auto cb = [&](auto) { cb_fired = true; };
  EXPECT_FALSE(a->rd(Pattern{"x"}, cb));
  EXPECT_FALSE(a->rdp(Pattern{"x"}, cb));
  EXPECT_FALSE(a->in(Pattern{"x"}, cb));
  EXPECT_FALSE(a->inp(Pattern{"x"}, cb));
  EXPECT_FALSE(cb_fired);
  EXPECT_EQ(a->monitor().counters().ops_lease_refused, 4u);
  EXPECT_EQ(a->out(Tuple{"x"}), Status::kLeaseRefused);
  EXPECT_EQ(a->endpoint().stats().sent, 0u);  // truly no work
  // Figure 2's "no further work" includes the local search.
  EXPECT_EQ(space_work(*a), work_before);
  EXPECT_EQ(a->local_space().count_matches(Pattern{"x"}), 1u);
  EXPECT_EQ(a->open_ops(), 0u);
  EXPECT_EQ(a->leases().active(), 0u);
}

// ---------------- Local non-blocking hits ----------------

TEST_F(CoreFixture, LocalInpHitIsLeasedWithoutTimerOrOpRecord) {
  auto a = make("a");
  a->out(Tuple{"x", 1});
  a->out(Tuple{"x", 2});
  // A blocking rd hit takes a full lease: its id is the baseline.
  ASSERT_TRUE(run_rd(*a, Pattern{"x", 1}).has_value());
  const auto rd_tail = a->flight_recorder().tail();
  ASSERT_GE(rd_tail.size(), 2u);
  const obs::TraceEvent& rd_grant = rd_tail[rd_tail.size() - 2];
  ASSERT_EQ(rd_grant.kind, obs::EventKind::kLeaseGranted);

  obs::Counter& granted = a->metrics().counter("lease.granted");
  obs::Counter& released = a->metrics().counter("lease.released");
  const std::uint64_t granted_before = granted.value();
  const std::uint64_t released_before = released.value();
  const std::size_t active = a->leases().active();
  const std::size_t open = a->open_ops();
  const std::size_t timers = w.queue.pending();

  std::optional<ReadResult> got;
  bool fired = false;
  ASSERT_TRUE(a->inp(Pattern{"x", 2}, [&](auto r) {
    fired = true;
    got = std::move(r);
  }));
  ASSERT_TRUE(fired) << "a local hit calls back before inp returns";
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tuple, (Tuple{"x", 2}));
  EXPECT_EQ(got->source, a->node());
  EXPECT_EQ(a->local_space().count_matches(Pattern{"x", 2}), 0u);

  EXPECT_EQ(granted.value(), granted_before + 1);
  EXPECT_EQ(released.value(), released_before + 1);
  EXPECT_EQ(a->leases().active(), active);
  EXPECT_EQ(a->open_ops(), open);
  EXPECT_EQ(w.queue.pending(), timers);
  EXPECT_EQ(a->monitor().counters().satisfied_local, 2u);

  const auto tail = a->flight_recorder().tail();
  ASSERT_GE(tail.size(), 3u);
  const obs::TraceEvent& issued = tail[tail.size() - 3];
  const obs::TraceEvent& grant = tail[tail.size() - 2];
  const obs::TraceEvent& accept = tail[tail.size() - 1];
  EXPECT_EQ(issued.kind, obs::EventKind::kOpIssued);
  EXPECT_EQ(issued.detail, static_cast<std::int64_t>(OpKind::kInp));
  EXPECT_EQ(grant.kind, obs::EventKind::kLeaseGranted);
  EXPECT_EQ(grant.detail, rd_grant.detail + 1);
  EXPECT_EQ(accept.kind, obs::EventKind::kAccept);
  EXPECT_EQ(accept.peer, a->node());
  EXPECT_EQ(issued.op_id, grant.op_id);
  EXPECT_EQ(issued.op_id, accept.op_id);
}

TEST_F(CoreFixture, LocalRdpHitLeavesTupleInPlace) {
  auto a = make("a");
  a->out(Tuple{"keep", 7});
  std::optional<ReadResult> got;
  ASSERT_TRUE(a->rdp(Pattern{"keep", any_int()},
                     [&](auto r) { got = std::move(r); }));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tuple, (Tuple{"keep", 7}));
  EXPECT_EQ(got->source, a->node());
  EXPECT_EQ(a->local_space().count_matches(Pattern{"keep", any_int()}), 1u);
  EXPECT_EQ(a->open_ops(), 0u);
}

TEST_F(CoreFixture, LocalMissSearchesOnceThenResolvesAtPeer) {
  auto a = make("a");
  auto b = make("b");
  a->out(Tuple{"near", 3});  // same arity, so the keyed probe runs
  b->out(Tuple{"far", 3});
  obs::Counter& probes_counter = a->metrics().counter("match.bucket_probes");
  const std::uint64_t probes = probes_counter.value();
  const std::uint64_t takes = a->local_space().stats().takes;
  auto r = run_inp(*a, Pattern{"far", any_int()});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->source, b->node());
  EXPECT_EQ(probes_counter.value(), probes + 1);
  EXPECT_EQ(a->local_space().stats().takes, takes + 1);
  EXPECT_EQ(a->monitor().counters().satisfied_remote, 1u);
  EXPECT_EQ(a->monitor().counters().satisfied_local, 0u);
}

TEST_F(CoreFixture, BlockedOpReturnsNothingWhenLeaseExpires) {
  auto a = std::make_unique<Instance>(
      w.tx, with_ttl(fast_config("a"), sim::seconds(2)));
  bool fired = false;
  std::optional<ReadResult> got;
  ASSERT_TRUE(a->in(Pattern{"never"}, [&](auto r) {
    fired = true;
    got = r;
  }));
  w.run_for(sim::seconds(3));
  EXPECT_TRUE(fired);
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(a->monitor().counters().lease_expired, 1u);
  EXPECT_EQ(a->open_ops(), 0u);
}

TEST_F(CoreFixture, OutTupleReclaimedAtLeaseExpiry) {
  auto a = std::make_unique<Instance>(
      w.tx, with_ttl(fast_config("a"), sim::seconds(1)));
  a->out(Tuple{"fleeting"});
  EXPECT_EQ(a->local_space().count_matches(Pattern{"fleeting"}), 1u);
  w.run_for(sim::seconds(2));
  EXPECT_EQ(a->local_space().count_matches(Pattern{"fleeting"}), 0u);
}

TEST_F(CoreFixture, ContactBudgetLimitsPropagation) {
  Config cfg = fast_config("a");
  cfg.lease_caps.default_contacts = 1;
  cfg.lease_caps.max_contacts = 1;
  auto a = std::make_unique<Instance>(w.tx, cfg);
  std::vector<std::unique_ptr<Instance>> others;
  for (int i = 0; i < 5; ++i) others.push_back(make("o" + std::to_string(i)));
  // Only the last holds the tuple; with a 1-contact budget we usually miss.
  others.back()->out(Tuple{"needle"});
  auto r = run_rdp(*a, Pattern{"needle"});
  // Whether it hits depends on list order, but never more than one remote
  // may have been contacted.
  std::uint64_t requests = 0;
  for (auto& o : others) {
    requests += o->monitor().counters().remote_requests_served +
                o->monitor().counters().remote_serving_refused;
  }
  EXPECT_LE(requests, 1u);
  (void)r;
}

TEST_F(CoreFixture, EvalHaltedByShortLease) {
  auto a = std::make_unique<Instance>(
      w.tx, with_ttl(fast_config("a"), sim::seconds(1)));
  space::ActiveTuple at;
  at.add("slow");
  at.add([] { return tuples::Value(1); }, sim::seconds(10));
  EXPECT_EQ(a->eval(std::move(at)), Status::kOk);
  w.run_for(sim::seconds(12));
  EXPECT_EQ(a->local_space().count_matches(Pattern{"slow", any_int()}), 0u);
  EXPECT_EQ(a->evals().stats().halted, 1u);
}

TEST_F(CoreFixture, EvalProducesTupleWithinLease) {
  auto a = make("a");
  space::ActiveTuple at;
  at.add("fast");
  at.add([] { return tuples::Value(99); }, sim::milliseconds(10));
  EXPECT_EQ(a->eval(std::move(at)), Status::kOk);
  w.run_for(sim::milliseconds(100));
  EXPECT_EQ(a->local_space().count_matches(Pattern{"fast", any_int()}), 1u);
}

// ---------------- Visibility change (opportunism) ----------------

TEST_F(CoreFixture, LateArrivalSatisfiesBlockedOp) {
  // The §3.1 "model" behaviour: an instance that becomes visible during the
  // operation's lifetime participates.
  Config cfg = with_ttl(fast_config("a"), sim::seconds(20));
  cfg.propagate_to_late_arrivals = true;
  auto a = std::make_unique<Instance>(w.tx, cfg);
  std::optional<ReadResult> got;
  ASSERT_TRUE(a->rd(Pattern{"late"}, [&](auto r) { got = r; }));
  w.run_for(sim::seconds(1));
  EXPECT_FALSE(got.has_value());
  auto b = make("late-joiner");  // appears mid-operation
  b->out(Tuple{"late"});
  w.run_for(sim::seconds(2));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->source, b->node());
}

TEST_F(CoreFixture, PrototypeModeIgnoresLateArrivals) {
  // The paper's prototype deviation: only instances visible at the start
  // of the operation are included.
  Config cfg = with_ttl(fast_config("a"), sim::seconds(5));
  cfg.propagate_to_late_arrivals = false;
  auto a = std::make_unique<Instance>(w.tx, cfg);
  std::optional<ReadResult> got;
  bool fired = false;
  ASSERT_TRUE(a->rd(Pattern{"late"}, [&](auto r) {
    fired = true;
    got = r;
  }));
  w.run_for(sim::seconds(1));
  auto b = make("late-joiner");
  b->out(Tuple{"late"});
  w.run_for(sim::seconds(10));
  EXPECT_TRUE(fired);
  EXPECT_FALSE(got.has_value()) << "prototype mode must not see the joiner";
}

TEST_F(CoreFixture, DepartedInstanceDoesNotBreakOperation) {
  auto a = make("a");
  auto b = make("b");
  auto c = make("c");
  c->out(Tuple{"survivor"});
  // b vanishes mid-world; a's op should still find c's tuple.
  b.reset();
  auto r = run_rdp(*a, Pattern{"survivor"});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->source, c->node());
}

TEST_F(CoreFixture, ResponderListDropsNonResponders) {
  auto a = make("a");
  auto b = make("b");
  const sim::NodeId b_node = b->node();
  // Prime a's responder list.
  run_rdp(*a, Pattern{"warmup"});
  EXPECT_TRUE(a->responders().contains(b_node));
  b.reset();  // departs
  run_rdp(*a, Pattern{"anything"});
  w.run_for(sim::seconds(1));
  EXPECT_FALSE(a->responders().contains(b_node))
      << "non-responder must be removed from the list (§3.1.3)";
}

TEST_F(CoreFixture, IsolatedLogicalSpacesDiffer) {
  // Figure 1(c): B sees A and C; A and C see only B.
  w.net.set_radio_range(10.0);
  Config cfg;
  auto a = std::make_unique<Instance>(w.tx, fast_config("A"), nullptr,
                                      transport::NodeOptions{0, 0});
  auto b = std::make_unique<Instance>(w.tx, fast_config("B"), nullptr,
                                      transport::NodeOptions{8, 0});
  auto c = std::make_unique<Instance>(w.tx, fast_config("C"), nullptr,
                                      transport::NodeOptions{16, 0});
  ASSERT_TRUE(w.net.visible(a->node(), b->node()));
  ASSERT_TRUE(w.net.visible(b->node(), c->node()));
  ASSERT_FALSE(w.net.visible(a->node(), c->node()));

  a->out(Tuple{"at-a"});
  c->out(Tuple{"at-c"});

  // B's logical space contains both.
  EXPECT_TRUE(run_rdp(*b, Pattern{"at-a"}).has_value());
  EXPECT_TRUE(run_rdp(*b, Pattern{"at-c"}).has_value());
  // A's logical space does not contain C's tuple, and vice versa.
  EXPECT_FALSE(run_rdp(*a, Pattern{"at-c"}).has_value());
  EXPECT_FALSE(run_rdp(*c, Pattern{"at-a"}).has_value());
}

// ---------------- Directed remote operations (§2.4) ----------------

TEST_F(CoreFixture, OutAtPlacesTupleRemotely) {
  auto a = make("a");
  auto b = make("b");
  EXPECT_EQ(a->out_at(b->handle(), Tuple{"sent", 1}), Status::kOk);
  w.run_for(sim::seconds(1));
  EXPECT_EQ(b->local_space().count_matches(Pattern{"sent", any_int()}), 1u);
  EXPECT_EQ(a->local_space().count_matches(Pattern{"sent", any_int()}), 0u);
}

TEST_F(CoreFixture, OutAtUnreachableAbandons) {
  w.net.set_radio_range(5.0);
  auto a = std::make_unique<Instance>(w.tx, fast_config("a"), nullptr,
                                      transport::NodeOptions{0, 0});
  auto b = std::make_unique<Instance>(w.tx, fast_config("b"), nullptr,
                                      transport::NodeOptions{100, 0});
  EXPECT_EQ(a->out_at(b->handle(), Tuple{"lost"}, UnavailablePolicy::kAbandon),
            Status::kUnavailable);
  w.run_for(sim::seconds(1));
  EXPECT_EQ(b->local_space().count_matches(Pattern{"lost"}), 0u);
}

TEST_F(CoreFixture, OutAtUnreachableFallsBackLocal) {
  w.net.set_radio_range(5.0);
  auto a = std::make_unique<Instance>(w.tx, fast_config("a"), nullptr,
                                      transport::NodeOptions{0, 0});
  auto b = std::make_unique<Instance>(w.tx, fast_config("b"), nullptr,
                                      transport::NodeOptions{100, 0});
  EXPECT_EQ(a->out_at(b->handle(), Tuple{"kept"}, UnavailablePolicy::kLocal),
            Status::kOk);
  EXPECT_EQ(a->local_space().count_matches(Pattern{"kept"}), 1u);
}

TEST_F(CoreFixture, OutAtRouteDeliversWhenVisibleAgain) {
  w.net.set_radio_range(5.0);
  Config cfg = fast_config("a");
  cfg.lease_caps.default_ttl = sim::seconds(30);
  cfg.lease_caps.max_ttl = sim::seconds(30);
  auto a = std::make_unique<Instance>(w.tx, cfg, nullptr,
                                      transport::NodeOptions{0, 0});
  auto b = std::make_unique<Instance>(w.tx, fast_config("b"), nullptr,
                                      transport::NodeOptions{100, 0});
  EXPECT_EQ(a->out_at(b->handle(), Tuple{"routed"}, UnavailablePolicy::kRoute),
            Status::kQueued);
  w.run_for(sim::seconds(2));
  EXPECT_EQ(b->local_space().count_matches(Pattern{"routed"}), 0u);
  // b walks into range.
  w.net.set_position(b->node(), {3, 0});
  w.run_for(sim::seconds(2));
  EXPECT_EQ(b->local_space().count_matches(Pattern{"routed"}), 1u);
  EXPECT_EQ(a->router().pending(), 0u);
}

TEST_F(CoreFixture, OutToOriginReturnsToSource) {
  auto a = make("a");
  auto b = make("b");
  b->out(Tuple{"req", 1});
  auto r = run_inp(*a, Pattern{"req", any_int()});
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->source, b->node());
  EXPECT_EQ(a->out_to_origin(*r, Tuple{"resp", 1}), Status::kOk);
  w.run_for(sim::seconds(1));
  EXPECT_EQ(b->local_space().count_matches(Pattern{"resp", any_int()}), 1u);
}

TEST_F(CoreFixture, DirectedRdReadsOnlyThatSpace) {
  auto a = make("a");
  auto b = make("b");
  auto c = make("c");
  c->out(Tuple{"elsewhere"});
  b->out(Tuple{"here"});
  std::optional<ReadResult> got;
  bool fired = false;
  ASSERT_TRUE(a->rdp_at(b->handle(), Pattern{"elsewhere"}, [&](auto r) {
    fired = true;
    got = r;
  }));
  w.run_for(sim::seconds(1));
  EXPECT_TRUE(fired);
  EXPECT_FALSE(got.has_value()) << "directed op must not propagate to c";

  std::optional<ReadResult> got2;
  ASSERT_TRUE(a->rdp_at(b->handle(), Pattern{"here"},
                        [&](auto r) { got2 = r; }));
  w.run_for(sim::seconds(1));
  ASSERT_TRUE(got2.has_value());
  EXPECT_EQ(got2->source, b->node());
}

TEST_F(CoreFixture, DirectedInTakesFromThatSpace) {
  auto a = make("a");
  auto b = make("b");
  std::optional<ReadResult> got;
  ASSERT_TRUE(a->in_at(b->handle(), Pattern{"job"}, [&](auto r) { got = r; }));
  w.run_for(sim::milliseconds(300));
  b->out(Tuple{"job"});
  w.run_for(sim::seconds(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(b->local_space().count_matches(Pattern{"job"}), 0u);
  EXPECT_EQ(b->local_space().tentative_count(), 0u);
}

// ---------------- Handles ----------------

TEST_F(CoreFixture, HandleTuplePublishedAndReadable) {
  auto a = make("alpha");
  auto b = make("beta");
  // a can read b's handle through the logical space.
  auto r = run_rdp(*a, space::handle_pattern());
  ASSERT_TRUE(r.has_value());
  auto h = space::parse_handle_tuple(r->tuple);
  ASSERT_TRUE(h.has_value());
}

TEST_F(CoreFixture, EnumerateHandlesFindsAllVisible) {
  auto a = make("alpha");
  auto b = make("beta");
  auto c = make("gamma");
  std::vector<space::SpaceHandle> handles;
  a->enumerate_handles([&](auto hs) { handles = hs; });
  w.run_for(sim::seconds(2));
  ASSERT_EQ(handles.size(), 3u);
  std::set<std::string> names;
  for (const auto& h : handles) names.insert(h.name);
  EXPECT_TRUE(names.count("alpha"));
  EXPECT_TRUE(names.count("beta"));
  EXPECT_TRUE(names.count("gamma"));
}

TEST_F(CoreFixture, HandleCarriesPersistenceFlag) {
  Config cfg = fast_config("store");
  cfg.persistent_space = true;
  auto a = std::make_unique<Instance>(w.tx, cfg);
  auto b = make("b");
  // Key the pattern on the space name so b's own handle does not match.
  Pattern p{space::kHandleTag, any_int(), "store", tuples::any_bool()};
  auto r = run_rdp(*b, p);
  ASSERT_TRUE(r.has_value());
  auto h = space::parse_handle_tuple(r->tuple);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h->persistent);
  EXPECT_EQ(h->name, "store");
}

// ---------------- Responder cache behaviour ----------------

TEST_F(CoreFixture, SecondOpSkipsMulticast) {
  auto a = make("a");
  auto b = make("b");
  b->out(Tuple{"x", 1});
  b->out(Tuple{"x", 2});
  run_rdp(*a, Pattern{"x", any_int()});
  const auto probes_after_first = a->discovery().stats().probes_sent;
  EXPECT_GE(probes_after_first, 1u);
  run_rdp(*a, Pattern{"x", any_int()});
  EXPECT_EQ(a->discovery().stats().probes_sent, probes_after_first)
      << "cached responder list should avoid a second multicast";
}

TEST_F(CoreFixture, StabilityOrderingPrefersReliablePeers) {
  net::ResponderCache cache(net::ResponderCache::Ordering::kByStability);
  cache.add(1);
  cache.add(2);
  cache.record_failure(1);
  cache.record_failure(1);
  cache.record_success(1);
  cache.record_success(2);
  cache.record_success(2);
  auto order = cache.contact_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2u);
}

// ---------------- Determinism ----------------

TEST_F(CoreFixture, WholeScenarioIsDeterministic) {
  auto run_scenario = [](std::uint64_t seed) {
    World w2(seed);
    Config ca = fast_config("a"), cb = fast_config("b");
    Instance a(w2.tx, ca), b(w2.tx, cb);
    b.out(Tuple{"x", 1});
    std::int64_t result = -1;
    a.inp(Pattern{"x", any_int()},
          [&](auto r) { result = r ? r->tuple[1].as_int() : -2; });
    w2.run_for(sim::seconds(5));
    return std::make_pair(result, w2.net.stats().bytes_sent);
  };
  EXPECT_EQ(run_scenario(11), run_scenario(11));
}


// ---------------- Determinism regressions ----------------

// DeferredRouter teardown walks the route table cancelling retry timers;
// the table is ordered now, and no cancelled retry may fire afterwards.
TEST(DeferredRouterTest, TeardownCancelsRetryTimers) {
  World w;
  int attempts = 0;
  {
    DeferredRouter r(
        w.queue, sim::milliseconds(10),
        [&](sim::NodeId, const Tuple&, std::uint64_t, sim::Duration) {
          ++attempts;
        });
    for (std::int64_t i = 0; i < 4; ++i) {
      r.enqueue(99, Tuple{"x", i}, w.queue.now() + sim::seconds(5));
    }
    EXPECT_EQ(attempts, 4);  // enqueue tries once immediately
  }
  w.run_all();
  EXPECT_EQ(attempts, 4);  // no retry timer survived the router
}
}  // namespace
}  // namespace tiamat::core
