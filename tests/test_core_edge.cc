// Edge cases of the core protocol that the main integration suite does not
// cover: lease revocation mid-operation, contact-budget exhaustion on
// blocking ops, malformed/cross-protocol traffic, tentative-hold recovery
// after originator death, eval/space interactions, and config extremes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/peers.h"
#include "core/instance.h"
#include "tests/test_util.h"

namespace tiamat::core {
namespace {

using tuples::any_int;
using tuples::any_string;
using tuples::Pattern;
using tuples::Tuple;
using tiamat::testing::World;

Config cfg(const char* name) {
  Config c;
  c.name = name;
  c.lease_caps.default_ttl = sim::seconds(20);
  c.lease_caps.max_ttl = sim::seconds(60);
  return c;
}

// ---------------- Revocation (§2.5 last resort) ----------------

TEST(Revocation, MidOperationRevocationReturnsNothing) {
  World w;
  Instance a(w.tx, cfg("a"));
  Instance b(w.tx, cfg("b"));
  bool fired = false;
  std::optional<ReadResult> got;
  ASSERT_TRUE(a.in(Pattern{"never"}, [&](auto r) {
    fired = true;
    got = r;
  }));
  w.run_for(sim::milliseconds(500));
  EXPECT_FALSE(fired);
  // The instance reclaims everything (device shutting down).
  a.leases().revoke_all();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(a.open_ops(), 0u);
  // b's remote waiter is cancelled too (after the CancelOp propagates).
  w.run_for(sim::seconds(1));
  EXPECT_EQ(b.serving_count(), 0u);
  EXPECT_EQ(b.local_space().waiter_count(), 0u);
}

TEST(Revocation, RevokedStorageLeaseReclaimsTuple) {
  World w;
  Instance a(w.tx, cfg("a"));
  a.out(Tuple{"doomed"});
  EXPECT_EQ(a.local_space().count_matches(Pattern{"doomed"}), 1u);
  a.leases().revoke_all();
  EXPECT_EQ(a.local_space().count_matches(Pattern{"doomed"}), 0u);
}

// ---------------- Contact budget on blocking ops ----------------

TEST(Budget, BlockingOpStopsContactingWhenBudgetSpent) {
  World w;
  Config c = cfg("a");
  c.lease_caps.default_contacts = 2;
  c.lease_caps.max_contacts = 2;
  Instance a(w.tx, c);
  std::vector<std::unique_ptr<Instance>> peers;
  for (int i = 0; i < 6; ++i) {
    peers.push_back(std::make_unique<Instance>(
        w.tx, cfg(("p" + std::to_string(i)).c_str())));
  }
  ASSERT_TRUE(a.rd(Pattern{"scarce"}, [](auto) {}));
  w.run_for(sim::seconds(2));
  // At most 2 peers are serving the op (budget), not all 6.
  std::size_t serving = 0;
  for (auto& p : peers) serving += p->serving_count();
  EXPECT_LE(serving, 2u);
  EXPECT_GE(serving, 1u);
}

TEST(Budget, LateProducerBeyondBudgetStillMissed) {
  // With a tiny budget the op cannot widen to late arrivals once spent —
  // the documented meaning of a contact-bounded lease.
  World w;
  Config c = cfg("a");
  c.lease_caps.default_contacts = 1;
  c.lease_caps.max_contacts = 1;
  c.lease_caps.default_ttl = sim::seconds(5);
  c.lease_caps.max_ttl = sim::seconds(5);
  Instance a(w.tx, c);
  Instance first(w.tx, cfg("first"));  // consumes the only contact
  bool got = false;
  ASSERT_TRUE(a.rd(Pattern{"late"}, [&](auto r) { got = r.has_value(); }));
  w.run_for(sim::seconds(1));
  Instance late(w.tx, cfg("late"));
  late.out(Tuple{"late"});
  w.run_for(sim::seconds(10));
  EXPECT_FALSE(got) << "the single contact went to `first`; the lease "
                       "does not permit contacting `late`";
}

// ---------------- Hostile / foreign traffic ----------------

TEST(Robustness, GarbageAndForeignMessagesIgnored) {
  World w;
  Instance a(w.tx, cfg("a"));
  auto attacker = w.net.add_node();
  // Raw garbage.
  w.net.send(attacker, a.node(), sim::Payload{0xDE, 0xAD, 0xBE, 0xEF});
  // A well-formed message of a baseline protocol (Peers request).
  net::Message foreign;
  foreign.type = baselines::kPeersRequest;
  foreign.op_id = 7;
  foreign.origin = attacker;
  foreign.h(3).h(false);
  foreign.pattern = Pattern{any_string()};
  w.net.send(attacker, a.node(), net::encode_message(foreign));
  // Confirm/release/cancel for operations that never existed.
  for (std::uint16_t t : {net::kConfirm, net::kRelease, net::kCancelOp,
                          net::kOpResponse}) {
    net::Message stray;
    stray.type = t;
    stray.op_id = 12345;
    stray.origin = attacker;
    w.net.send(attacker, a.node(), net::encode_message(stray));
  }
  w.run_all();
  // The garbage, and the headerless kOpResponse (it lacks its flags).
  EXPECT_EQ(a.metrics().counter("net.decode_failures").value(), 2u);
  // The Peers request.
  EXPECT_GE(a.metrics().counter("net.unhandled").value(), 1u);
  // The instance still works.
  a.out(Tuple{"alive"});
  EXPECT_EQ(a.local_space().count_matches(Pattern{"alive"}), 1u);
}

TEST(Robustness, TruncatedOpRequestIgnored) {
  World w;
  Instance a(w.tx, cfg("a"));
  auto attacker = w.net.add_node();
  net::Message bad;
  bad.type = net::kOpRequest;  // missing headers and pattern
  bad.op_id = 1;
  bad.origin = attacker;
  w.net.send(attacker, a.node(), net::encode_message(bad));
  w.run_all();
  EXPECT_EQ(a.serving_count(), 0u);
  EXPECT_EQ(a.leases().active(), 0u);
  EXPECT_EQ(a.metrics().counter("net.decode_failures").value(), 1u);
}

/// An OpRequest from `attacker` with the given op-kind and deadline headers
/// and a pattern every string-keyed tuple matches.
net::Message op_request(transport::NodeId attacker, std::uint64_t op_id,
                        tuples::Value kind, tuples::Value deadline) {
  net::Message m;
  m.type = net::kOpRequest;
  m.op_id = op_id;
  m.origin = attacker;
  m.h(std::move(kind)).h(std::move(deadline));
  m.pattern = Pattern{any_string()};
  return m;
}

TEST(Robustness, BadKindOpRequestsHoldNoLease) {
  World w;
  Instance a(w.tx, cfg("a"));
  auto attacker = w.net.add_node();
  obs::Counter& granted = a.metrics().counter("lease.granted");
  obs::Counter& dropped = a.metrics().counter("net.decode_failures");
  const std::uint64_t granted_before = granted.value();
  const std::uint64_t dropped_before = dropped.value();
  // More requests than the policy's max_active_ops (256): were each to hold
  // a serving lease until its TTL, the instance would refuse its own ops.
  const std::int64_t bad_kinds[] = {-1, 4, 99};
  for (std::uint64_t i = 0; i < 300; ++i) {
    w.net.send(attacker, a.node(),
               net::encode_message(op_request(
                   attacker, i + 1, tuples::Value(bad_kinds[i % 3]),
                   tuples::Value(std::int64_t{-1}))));
  }
  w.run_for(sim::milliseconds(100));
  EXPECT_EQ(a.leases().active(), 0u);
  EXPECT_EQ(granted.value(), granted_before);
  EXPECT_EQ(dropped.value(), dropped_before + 300);
  EXPECT_EQ(a.serving_count(), 0u);
  EXPECT_EQ(a.out(Tuple{"alive"}), Status::kOk);
}

TEST(Robustness, WrongTypedOpRequestHeadersAreDroppedNotThrown) {
  World w;
  Instance a(w.tx, cfg("a"));
  auto attacker = w.net.add_node();
  obs::Counter& dropped = a.metrics().counter("net.decode_failures");
  const std::uint64_t granted = a.metrics().counter("lease.granted").value();
  const std::uint64_t before = dropped.value();
  // A string where the op kind belongs.
  w.net.send(attacker, a.node(),
             net::encode_message(op_request(attacker, 1, tuples::Value("inp"),
                                            tuples::Value(std::int64_t{-1}))));
  EXPECT_NO_THROW(w.run_for(sim::milliseconds(100)));
  EXPECT_EQ(dropped.value(), before + 1);
  // The drop path also leaves its trace footprint.
  const std::vector<obs::TraceEvent> tail = a.flight_recorder().tail();
  EXPECT_TRUE(std::any_of(tail.begin(), tail.end(), [&](const auto& e) {
    return e.kind == obs::EventKind::kDecodeFailure && e.peer == attacker;
  }));
  // A string where the deadline belongs.
  w.net.send(attacker, a.node(),
             net::encode_message(op_request(
                 attacker, 2, tuples::Value(std::int64_t{3}),
                 tuples::Value("never"))));
  EXPECT_NO_THROW(w.run_for(sim::milliseconds(100)));
  EXPECT_EQ(dropped.value(), before + 2);
  EXPECT_EQ(a.metrics().counter("lease.granted").value(), granted);
  EXPECT_EQ(a.leases().active(), 0u);
  EXPECT_EQ(a.serving_count(), 0u);
}

// Every other message type a wrong-typed header used to throw
// std::bad_variant_access out of (an abort in a real program). Each is now
// one counted drop that touches no op state: an exchange the message
// answers ends as if it had been lost.
TEST(Robustness, MistypedHeadersAreDroppedNotThrown) {
  enum class Exchange { kNone, kDirectedRdp, kEvalAt };
  struct Case {
    const char* name;
    net::MsgType type;
    std::vector<tuples::Value> headers;
    bool with_tuple;
    Exchange answers;  ///< the exchange `a` opens with the attacker first
  };
  const Case cases[] = {
      {"OpResponse for a stale op", net::kOpResponse, {1, 1}, false,
       Exchange::kNone},
      {"OpResponse for a live op", net::kOpResponse, {1, 1}, false,
       Exchange::kDirectedRdp},
      {"RemoteOutAck with an int", net::kRemoteOutAck, {1}, false,
       Exchange::kNone},
      {"RemoteOut with a string ttl", net::kRemoteOut, {"ten"}, true,
       Exchange::kNone},
      {"RemoteEval with an int name", net::kRemoteEval, {7, -1}, true,
       Exchange::kNone},
      {"RemoteEvalAck for a pending eval_at", net::kRemoteEvalAck, {1}, false,
       Exchange::kEvalAt},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    World w;
    Instance a(w.tx, cfg("a"));
    const transport::NodeId attacker = w.net.add_node();
    std::uint64_t asked = 0;  // op id of the last request `a` sent
    w.tx.bind(attacker, [&asked](transport::NodeId, const transport::Payload& p) {
      if (auto m = net::decode_message(p)) asked = m->op_id;
    });
    const space::SpaceHandle there{attacker, "attacker", false};
    int ended = 0;
    bool succeeded = false;
    if (c.answers == Exchange::kDirectedRdp) {
      ASSERT_TRUE(a.rdp_at(there, Pattern{any_string()},
                           [&](std::optional<ReadResult> r) {
                             ++ended;
                             succeeded = r.has_value();
                           }));
    } else if (c.answers == Exchange::kEvalAt) {
      ASSERT_EQ(a.eval_at(there, "work", Tuple{1},
                          [&](bool ok) {
                            ++ended;
                            succeeded = ok;
                          }),
                Status::kOk);
    }
    w.run_for(sim::milliseconds(10));  // the request reaches the attacker
    if (c.answers != Exchange::kNone) {
      ASSERT_NE(asked, 0u);
    }

    obs::Counter& dropped = a.metrics().counter("net.decode_failures");
    const std::uint64_t before = dropped.value();
    net::Message m;
    m.type = c.type;
    m.op_id = c.answers == Exchange::kNone ? 12345 : asked;
    m.origin = attacker;
    m.headers = c.headers;
    if (c.with_tuple) m.tuple = Tuple{"x"};
    w.net.send(attacker, a.node(), net::encode_message(m));
    EXPECT_NO_THROW(w.run_all());
    EXPECT_EQ(dropped.value(), before + 1);
    if (c.answers != Exchange::kNone) {
      EXPECT_EQ(ended, 1);
      EXPECT_FALSE(succeeded);
    }
    EXPECT_EQ(a.serving_count(), 0u);
    EXPECT_EQ(a.out(Tuple{"alive"}), Status::kOk);
  }
}

// ---------------- Originator death with tentative outstanding ----------------

/// Runs the sim until `holder` parks a tuple for `taker`'s remote take (the
/// request leaves after the probe window), then kills the taker before the
/// holder's reply can reach it: the hold ends in no Confirm.
void park_then_kill(World& w, Instance& holder,
                    std::unique_ptr<Instance>& taker) {
  for (int ms = 0; ms < 100 && holder.local_space().tentative_count() == 0;
       ++ms) {
    w.run_for(sim::milliseconds(1));
  }
  ASSERT_EQ(holder.local_space().tentative_count(), 1u);
  taker.reset();  // in-flight messages to it will be dropped
}

TEST(TentativeRecovery, OriginatorDiesBeforeConfirm) {
  World w;
  auto taker = std::make_unique<Instance>(w.tx, cfg("taker"));
  Instance holder(w.tx, cfg("holder"));
  holder.out(Tuple{"prize"},
             lease::FlexibleRequester{lease::for_duration(sim::seconds(50))});

  taker->inp(Pattern{"prize"}, [](auto) {});
  ASSERT_NO_FATAL_FAILURE(park_then_kill(w, holder, taker));

  // The holder's tentative hold expires and the tuple returns.
  w.run_for(sim::seconds(5));
  EXPECT_EQ(holder.local_space().tentative_count(), 0u);
  EXPECT_EQ(holder.local_space().count_matches(Pattern{"prize"}), 1u)
      << "the tuple must come back when the winner never confirms";
  EXPECT_EQ(holder.metrics().counter("serve.reinserted").value(), 1u);
}

TEST(TentativeRecovery, LeaseEndingDuringHoldKeepsTupleGone) {
  World w;
  auto taker = std::make_unique<Instance>(w.tx, cfg("taker"));
  Instance holder(w.tx, cfg("holder"));
  holder.out(Tuple{"x", 1}, lease::FlexibleRequester{
                                lease::for_duration(sim::milliseconds(100))});
  obs::Counter& reinserted = holder.metrics().counter("serve.reinserted");

  // The holder parks the tuple for a taker that dies before confirming.
  // The hold (750 ms) outlasts the storage lease (100 ms).
  taker->inp(Pattern{"x", any_int()}, [](auto) {});
  ASSERT_NO_FATAL_FAILURE(park_then_kill(w, holder, taker));

  // The storage lease ends during the hold; the hold's release then finds
  // nothing to put back, and nothing is counted as reinserted.
  w.run_for(sim::seconds(100));
  EXPECT_EQ(holder.local_space().tentative_count(), 0u);
  EXPECT_EQ(holder.local_space().count_matches(Pattern{"x", any_int()}), 0u)
      << "a tuple whose lease ended must not come back unleased";
  EXPECT_EQ(reinserted.value(), 0u);
  EXPECT_EQ(holder.leases().active(), 0u);
}

// ---------------- What a lease's end does to its holder ----------------
//
// One test per kind of holder. Expiry and revocation each end the holder's
// resource; a release (the holder finished normally) ends nothing more.
// Nothing in the public API releases a stored tuple's or an eval's lease.

lease::FlexibleRequester ttl(sim::Duration d) {
  return lease::FlexibleRequester{lease::for_duration(d)};
}

TEST(LeaseOwners, StoredTupleViaOut) {
  World w;
  Instance a(w.tx, cfg("a"));
  ASSERT_EQ(a.out(Tuple{"short"}, ttl(sim::seconds(1))), Status::kOk);
  ASSERT_EQ(a.out(Tuple{"long"}, ttl(sim::seconds(50))), Status::kOk);
  w.run_for(sim::seconds(2));
  EXPECT_EQ(a.local_space().count_matches(Pattern{"short"}), 0u);
  EXPECT_EQ(a.local_space().count_matches(Pattern{"long"}), 1u);
  a.leases().revoke_all();
  EXPECT_EQ(a.local_space().count_matches(Pattern{"long"}), 0u);
  EXPECT_EQ(a.leases().active(), 0u);
}

TEST(LeaseOwners, StoredTupleViaRemoteOut) {
  World w;
  Instance a(w.tx, cfg("a"));
  Instance b(w.tx, cfg("b"));
  ASSERT_EQ(a.out_at(b.handle(), Tuple{"short"}, ttl(sim::seconds(1)),
                     UnavailablePolicy::kAbandon),
            Status::kOk);
  ASSERT_EQ(a.out_at(b.handle(), Tuple{"long"}, ttl(sim::seconds(50)),
                     UnavailablePolicy::kAbandon),
            Status::kOk);
  w.run_for(sim::milliseconds(100));
  EXPECT_EQ(b.local_space().count_matches(Pattern{"short"}), 1u);
  EXPECT_EQ(b.local_space().count_matches(Pattern{"long"}), 1u);
  w.run_for(sim::seconds(2));
  EXPECT_EQ(b.local_space().count_matches(Pattern{"short"}), 0u);
  EXPECT_EQ(b.local_space().count_matches(Pattern{"long"}), 1u);
  b.leases().revoke_all();
  EXPECT_EQ(b.local_space().count_matches(Pattern{"long"}), 0u);
  EXPECT_EQ(b.leases().active(), 0u);
}

space::ActiveTuple slow_active(const char* tag) {
  space::ActiveTuple at;
  at.add(tuples::Value(tag));
  at.add([] { return tuples::Value(std::int64_t{1}); }, sim::seconds(5));
  return at;
}

TEST(LeaseOwners, LocalEval) {
  World w;
  Instance a(w.tx, cfg("a"));
  ASSERT_EQ(a.eval(slow_active("expires"), ttl(sim::seconds(1))), Status::kOk);
  w.run_for(sim::seconds(2));
  EXPECT_EQ(a.evals().running(), 0u) << "halted when its lease expired";
  ASSERT_EQ(a.eval(slow_active("revoked"), ttl(sim::seconds(50))),
            Status::kOk);
  w.run_for(sim::seconds(1));
  EXPECT_EQ(a.evals().running(), 1u);
  a.leases().revoke_all();
  EXPECT_EQ(a.evals().running(), 0u) << "halted when its lease was revoked";
  w.run_for(sim::seconds(10));
  EXPECT_EQ(a.local_space().count_matches(Pattern{any_string(), any_int()}),
            0u);
}

TEST(LeaseOwners, EvalAtSelf) {
  World w;
  Config c = cfg("a");
  c.lease_caps.default_ttl = sim::seconds(1);
  Instance a(w.tx, c);
  a.computations().install(
      "slow", [](const Tuple& args) { return Tuple{"done", args[0]}; },
      sim::seconds(5));
  ASSERT_EQ(a.eval_at(a.handle(), "slow", Tuple{1}), Status::kOk);
  w.run_for(sim::seconds(2));
  EXPECT_EQ(a.evals().running(), 0u) << "halted when its lease expired";
  ASSERT_EQ(a.eval_at(a.handle(), "slow", Tuple{2}), Status::kOk);
  w.run_for(sim::milliseconds(500));
  EXPECT_EQ(a.evals().running(), 1u);
  a.leases().revoke_all();
  EXPECT_EQ(a.evals().running(), 0u) << "halted when its lease was revoked";
  w.run_for(sim::seconds(10));
  EXPECT_EQ(a.local_space().count_matches(Pattern{"done", any_int()}), 0u);
}

/// Runs until `server` holds one serving entry (the request arrives after
/// the originator's probe window).
void run_until_serving(World& w, Instance& server) {
  for (int ms = 0; ms < 200 && server.serving_count() == 0; ++ms) {
    w.run_for(sim::milliseconds(1));
  }
  ASSERT_EQ(server.serving_count(), 1u);
}

TEST(LeaseOwners, ServedRd) {
  World w;
  Instance a(w.tx, cfg("a"));
  Instance b(w.tx, cfg("b"));
  obs::Counter& expired = b.metrics().counter("lease.expired");

  // Expiry: the serving lease ends at the originator's deadline, before
  // the originator's cancel can arrive.
  int calls = 0;
  ASSERT_TRUE(a.rd(Pattern{"none"}, [&](auto) { ++calls; },
                   ttl(sim::milliseconds(500))));
  ASSERT_NO_FATAL_FAILURE(run_until_serving(w, b));
  EXPECT_EQ(b.local_space().waiter_count(), 1u);
  w.queue.run_until(sim::milliseconds(501));
  EXPECT_EQ(expired.value(), 1u);
  EXPECT_EQ(b.serving_count(), 0u);
  EXPECT_EQ(b.local_space().waiter_count(), 0u);
  w.run_for(sim::seconds(1));
  EXPECT_EQ(calls, 1);

  // Revocation.
  ASSERT_TRUE(a.rd(Pattern{"none"}, [&](auto) { ++calls; },
                   ttl(sim::seconds(50))));
  ASSERT_NO_FATAL_FAILURE(run_until_serving(w, b));
  b.leases().revoke_all();
  EXPECT_EQ(b.serving_count(), 0u);
  EXPECT_EQ(b.local_space().waiter_count(), 0u);
  a.leases().revoke_all();
  EXPECT_EQ(calls, 2);

  // Release: a match answers the op and drops the entry; the tuple stays.
  std::optional<ReadResult> got;
  ASSERT_TRUE(a.rd(Pattern{"later"}, [&](auto r) { got = r; },
                   ttl(sim::seconds(50))));
  ASSERT_NO_FATAL_FAILURE(run_until_serving(w, b));
  b.local_space().out(Tuple{"later"});
  w.run_for(sim::milliseconds(100));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->source, b.node());
  EXPECT_EQ(b.serving_count(), 0u);
  EXPECT_EQ(b.local_space().count_matches(Pattern{"later"}), 1u);
  EXPECT_EQ(b.leases().active(), 0u);
}

TEST(LeaseOwners, ServedIn) {
  World w;
  Instance holder(w.tx, cfg("holder"));
  obs::Counter& reinserted = holder.metrics().counter("serve.reinserted");
  // The prize is stored without a lease, so the holder's only lease below
  // is the serving one.
  holder.local_space().out(Tuple{"prize"});

  // Expiry during the hold: the tentatively taken tuple comes back before
  // the hold (750 ms) would have returned it.
  auto taker = std::make_unique<Instance>(w.tx, cfg("taker"));
  taker->in(Pattern{"prize"}, [](auto) {}, ttl(sim::milliseconds(300)));
  ASSERT_NO_FATAL_FAILURE(park_then_kill(w, holder, taker));
  w.queue.run_until(sim::milliseconds(400));
  EXPECT_EQ(holder.serving_count(), 0u);
  EXPECT_EQ(holder.local_space().tentative_count(), 0u);
  EXPECT_EQ(holder.local_space().count_matches(Pattern{"prize"}), 1u);
  EXPECT_EQ(reinserted.value(), 1u);

  // Revocation during the hold.
  taker = std::make_unique<Instance>(w.tx, cfg("taker2"));
  taker->in(Pattern{"prize"}, [](auto) {}, ttl(sim::seconds(50)));
  ASSERT_NO_FATAL_FAILURE(park_then_kill(w, holder, taker));
  holder.leases().revoke_all();
  EXPECT_EQ(holder.serving_count(), 0u);
  EXPECT_EQ(holder.local_space().tentative_count(), 0u);
  EXPECT_EQ(holder.local_space().count_matches(Pattern{"prize"}), 1u);
  EXPECT_EQ(reinserted.value(), 2u);

  // Revocation while waiting: the waiter goes with the entry.
  Instance waiter(w.tx, cfg("waiter"));
  ASSERT_TRUE(waiter.in(Pattern{"absent"}, [](auto) {}, ttl(sim::seconds(50))));
  ASSERT_NO_FATAL_FAILURE(run_until_serving(w, holder));
  const std::size_t waiters = holder.local_space().waiter_count();
  holder.leases().revoke_all();
  EXPECT_EQ(holder.serving_count(), 0u);
  EXPECT_EQ(holder.local_space().waiter_count(), waiters - 1);
  waiter.leases().revoke_all();
  w.run_for(sim::seconds(1));

  // Release: the confirmed take ends the entry and puts nothing back.
  std::optional<ReadResult> got;
  ASSERT_TRUE(waiter.in(Pattern{"prize"}, [&](auto r) { got = r; },
                        ttl(sim::seconds(50))));
  w.run_for(sim::seconds(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(holder.serving_count(), 0u);
  EXPECT_EQ(holder.local_space().tentative_count(), 0u);
  EXPECT_EQ(holder.local_space().count_matches(Pattern{"prize"}), 0u);
  EXPECT_EQ(reinserted.value(), 2u);
  EXPECT_EQ(holder.leases().active(), 0u);
}

TEST(LeaseOwners, Op) {
  World w;
  Instance a(w.tx, cfg("a"));
  std::vector<bool> results;
  auto cb = [&](std::optional<ReadResult> r) {
    results.push_back(r.has_value());
  };
  ASSERT_TRUE(a.in(Pattern{"never"}, cb, ttl(sim::seconds(1))));
  w.run_for(sim::seconds(2));
  EXPECT_EQ(results, std::vector<bool>{false}) << "expired";
  ASSERT_TRUE(a.in(Pattern{"never"}, cb, ttl(sim::seconds(50))));
  w.run_for(sim::seconds(1));
  a.leases().revoke_all();
  EXPECT_EQ(results, (std::vector<bool>{false, false})) << "revoked";
  ASSERT_TRUE(a.in(Pattern{"x"}, cb, ttl(sim::seconds(50))));
  a.local_space().out(Tuple{"x"});
  w.run_for(sim::seconds(60));
  EXPECT_EQ(results, (std::vector<bool>{false, false, true}))
      << "a match releases the lease and calls back once";
  EXPECT_EQ(a.open_ops(), 0u);
  EXPECT_EQ(a.leases().active(), 0u);
}

TEST(LeaseOwners, DirectedOp) {
  World w;
  Config c = cfg("a");
  c.lease_caps.default_ttl = sim::seconds(1);
  Instance a(w.tx, c);
  Instance b(w.tx, cfg("b"));
  std::vector<bool> results;
  auto cb = [&](std::optional<ReadResult> r) {
    results.push_back(r.has_value());
  };
  ASSERT_TRUE(a.in_at(b.handle(), Pattern{"never"}, cb));
  w.run_for(sim::seconds(2));
  EXPECT_EQ(results, std::vector<bool>{false}) << "expired";
  ASSERT_TRUE(a.in_at(b.handle(), Pattern{"never"}, cb));
  w.run_for(sim::milliseconds(500));
  a.leases().revoke_all();
  EXPECT_EQ(results, (std::vector<bool>{false, false})) << "revoked";
  ASSERT_TRUE(a.in_at(b.handle(), Pattern{"y"}, cb));
  b.local_space().out(Tuple{"y"});
  w.run_for(sim::seconds(5));
  EXPECT_EQ(results, (std::vector<bool>{false, false, true}))
      << "a match releases the lease and calls back once";
  EXPECT_EQ(a.open_ops(), 0u);
  EXPECT_EQ(a.leases().active(), 0u);
}

// ---------------- A served rd replies once per outcome ----------------

/// A raw node that sends `server` one kRd request and records its replies.
struct RawRd {
  RawRd(World& w, Instance& server) : w(w), server(server) {
    node = w.net.add_node();
    w.tx.bind(node, [this](transport::NodeId, const transport::Payload& p) {
      if (auto m = net::decode_message(p);
          m && m->type == net::kOpResponse) {
        const auto h = m->read<bool, bool>();
        found.push_back(h && std::get<0>(*h));
      }
    });
  }
  void send() {
    w.net.send(node, server.node(),
               net::encode_message(op_request(
                   node, 1, tuples::Value(std::int64_t{0}),
                   tuples::Value(std::int64_t{-1}))));
  }
  World& w;
  Instance& server;
  transport::NodeId node = transport::kNoNode;
  std::vector<bool> found;  ///< one entry per kOpResponse: did it match
};

TEST(ServedRd, ImmediateMatchRepliesOnce) {
  World w;
  Instance b(w.tx, cfg("b"));
  ASSERT_EQ(b.out(Tuple{"here"}), Status::kOk);
  RawRd rd(w, b);
  rd.send();
  w.run_for(sim::milliseconds(100));
  EXPECT_EQ(rd.found, std::vector<bool>{true});
  EXPECT_EQ(b.serving_count(), 0u);
  EXPECT_EQ(b.leases().active(), 1u) << "only the stored tuple's lease";
}

TEST(ServedRd, WaitingRdAcksThenMatches) {
  World w;
  Instance b(w.tx, cfg("b"));
  RawRd rd(w, b);
  rd.send();
  w.run_for(sim::milliseconds(100));
  EXPECT_EQ(rd.found, std::vector<bool>{false});
  EXPECT_EQ(b.serving_count(), 1u);
  ASSERT_EQ(b.out(Tuple{"later"}), Status::kOk);
  w.run_for(sim::milliseconds(100));
  EXPECT_EQ(rd.found, (std::vector<bool>{false, true}));
  EXPECT_EQ(b.serving_count(), 0u);
  EXPECT_EQ(b.leases().active(), 1u) << "only the stored tuple's lease";
}

// ---------------- Misc semantics ----------------

TEST(Misc, RdDoesNotConsumeEvenRemotely) {
  World w;
  Instance a(w.tx, cfg("a"));
  Instance b(w.tx, cfg("b"));
  b.out(Tuple{"shared"},
        lease::FlexibleRequester{lease::for_duration(sim::seconds(50))});
  for (int i = 0; i < 5; ++i) {
    auto r = run_rd(a, Pattern{"shared"});
    ASSERT_TRUE(r.has_value());
  }
  EXPECT_EQ(b.local_space().count_matches(Pattern{"shared"}), 1u);
}

TEST(Misc, ConcurrentOpsOnOneInstanceAreIndependent) {
  World w;
  Instance a(w.tx, cfg("a"));
  Instance b(w.tx, cfg("b"));
  int fired = 0;
  std::optional<ReadResult> r1, r2, r3;
  a.in(Pattern{"x", 1}, [&](auto r) { ++fired; r1 = r; });
  a.in(Pattern{"x", 2}, [&](auto r) { ++fired; r2 = r; });
  a.rd(Pattern{"x", 3}, [&](auto r) { ++fired; r3 = r; });
  b.out(Tuple{"x", 2});
  b.out(Tuple{"x", 3});
  w.run_for(sim::seconds(2));
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->tuple[1].as_int(), 2);
  ASSERT_TRUE(r3.has_value());
  w.run_for(sim::seconds(30));  // first op's lease expires
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(r1.has_value());
}

TEST(Misc, SelfDirectedOpsBehaveLikeLocal) {
  World w;
  Instance a(w.tx, cfg("a"));
  a.out(Tuple{"mine", 5});
  std::optional<ReadResult> got;
  obs::Counter& started = a.metrics().counter("op.started");
  const std::uint64_t started_before = started.value();
  ASSERT_TRUE(a.inp_at(a.handle(), Pattern{"mine", any_int()},
                       [&](auto r) { got = r; }));
  w.run_for(sim::milliseconds(100));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->source, a.node());
  EXPECT_EQ(a.endpoint().stats().sent, 0u) << "no network for self ops";
  EXPECT_EQ(started.value(), started_before + 1) << "one op, counted once";
}

TEST(Misc, ZeroArityTuplesWorkEndToEnd) {
  World w;
  Instance a(w.tx, cfg("a"));
  Instance b(w.tx, cfg("b"));
  b.out(Tuple{});
  auto r = run_inp(a, Pattern{});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->tuple.arity(), 0u);
}

TEST(Misc, LargeTupleCrossesNetworkIntact) {
  World w;
  Instance a(w.tx, cfg("a"));
  Instance b(w.tx, cfg("b"));
  tuples::Blob big(64 * 1024, 0x5A);
  // The default byte budget (64 KiB) cannot cover the tuple + overhead:
  EXPECT_EQ(b.out(Tuple{"blob", tuples::Value(big)},
                  lease::FlexibleRequester{lease::for_duration(
                      sim::seconds(50))}),
            Status::kRefusedBySpace);
  // An explicit budget gets it stored.
  lease::LeaseTerms roomy;
  roomy.ttl = sim::seconds(50);
  roomy.max_bytes = 128 * 1024;
  EXPECT_EQ(b.out(Tuple{"blob", tuples::Value(big)},
                  lease::FlexibleRequester{roomy}),
            Status::kOk);
  auto r = run_inp(a, Pattern{"blob", tuples::any_blob()});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->tuple[1].as_blob(), big);
}

TEST(Misc, StatusToStringCoversAll) {
  EXPECT_STREQ(to_string(Status::kOk), "ok");
  EXPECT_STREQ(to_string(Status::kLeaseRefused), "lease-refused");
  EXPECT_STREQ(to_string(Status::kRefusedBySpace), "refused-by-space");
  EXPECT_STREQ(to_string(Status::kUnavailable), "unavailable");
  EXPECT_STREQ(to_string(Status::kQueued), "queued");
  EXPECT_STREQ(to_string(OpKind::kRd), "rd");
  EXPECT_STREQ(to_string(OpKind::kInp), "inp");
}

TEST(Misc, OutRefusedWhenByteBudgetTooSmall) {
  World w;
  Instance a(w.tx, cfg("a"));
  lease::LeaseTerms tiny;
  tiny.max_bytes = 4;  // cannot cover any real tuple
  EXPECT_EQ(a.out(Tuple{"big", std::string(100, 'x')},
                  lease::FlexibleRequester{tiny}),
            Status::kRefusedBySpace);
  EXPECT_EQ(a.local_space().count_matches(
                Pattern{"big", tuples::any_string()}),
            0u);
}

}  // namespace
}  // namespace tiamat::core
