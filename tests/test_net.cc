// Unit tests for the messaging layer: envelope codec, endpoint dispatch,
// correlation, multicast discovery, and the §3.1.3 responder list.

#include <gtest/gtest.h>

#include <memory>

#include "net/discovery.h"
#include "net/endpoint.h"
#include "net/message.h"
#include "net/responder_cache.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace tiamat::net {
namespace {

using tiamat::testing::World;
using tuples::Pattern;
using tuples::Tuple;

// ---------------- Message codec ----------------

TEST(MessageCodec, RoundTripFull) {
  Message m;
  m.type = kOpRequest;
  m.op_id = 0xDEADBEEFCAFEull;
  m.origin = 42;
  m.h(7).h("hello").h(true).h(2.5);
  m.tuple = Tuple{"data", 1};
  m.pattern = Pattern{"data", tuples::any_int()};
  auto back = decode_message(encode_message(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, m.type);
  EXPECT_EQ(back->op_id, m.op_id);
  EXPECT_EQ(back->origin, m.origin);
  ASSERT_EQ(back->headers.size(), 4u);
  const auto h = back->read<std::int64_t, std::string, bool, double>();
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(*h, std::make_tuple(std::int64_t{7}, std::string("hello"), true,
                                2.5));
  // A wrong count or a wrong type reads nothing.
  EXPECT_FALSE((back->read<std::int64_t, std::string, bool>()));
  EXPECT_FALSE((back->read<std::int64_t, std::string, bool, std::int64_t>()));
  EXPECT_EQ(*back->tuple, *m.tuple);
  EXPECT_EQ(*back->pattern, *m.pattern);
}

TEST(MessageCodec, RoundTripMinimal) {
  Message m;
  m.type = kProbe;
  auto back = decode_message(encode_message(m));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, kProbe);
  EXPECT_TRUE(back->headers.empty());
  EXPECT_FALSE(back->tuple.has_value());
  EXPECT_FALSE(back->pattern.has_value());
}

TEST(MessageCodec, RejectsTruncation) {
  Message m;
  m.type = kOpResponse;
  m.tuple = Tuple{"x", 1, 2, 3};
  auto bytes = encode_message(m);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    tuples::Bytes prefix(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(decode_message(prefix).has_value());
  }
}

TEST(MessageCodec, RejectsTrailingGarbage) {
  Message m;
  m.type = kProbe;
  auto bytes = encode_message(m);
  bytes.push_back(0xFF);
  EXPECT_FALSE(decode_message(bytes).has_value());
}

// ---------------- Endpoint ----------------

TEST(EndpointTest, DispatchesByType) {
  World w;
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  Endpoint ea(w.tx, a), eb(w.tx, b);
  int got1 = 0, got2 = 0, other = 0;
  eb.on(1, [&](sim::NodeId, const Message&) { ++got1; });
  eb.on(2, [&](sim::NodeId, const Message&) { ++got2; });
  eb.set_default_handler([&](sim::NodeId, const Message&) { ++other; });
  Message m;
  m.type = 1;
  ea.send(b, m);
  m.type = 2;
  ea.send(b, m);
  m.type = 99;
  ea.send(b, m);
  w.run_all();
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got2, 1);
  EXPECT_EQ(other, 1);
  EXPECT_EQ(eb.stats().received, 3u);
  EXPECT_EQ(ea.stats().sent, 3u);
}

TEST(EndpointTest, GarbagePayloadCountsDecodeFailure) {
  World w;
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  Endpoint eb(w.tx, b);
  obs::Registry reg;
  eb.bind_metrics(reg);
  w.net.send(a, b, sim::Payload{0xFF, 0xFF, 0x01});
  w.run_all();
  EXPECT_EQ(reg.counter("net.decode_failures").value(), 1u);
  EXPECT_EQ(eb.stats().received, 0u);
}

TEST(EndpointTest, UnhandledTypeCounted) {
  World w;
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  Endpoint ea(w.tx, a), eb(w.tx, b);
  obs::Registry reg;
  eb.bind_metrics(reg);
  Message m;
  m.type = 77;
  ea.send(b, m);
  w.run_all();
  EXPECT_EQ(reg.counter("net.unhandled").value(), 1u);
}

TEST(EndpointTest, MulticastToGroup) {
  World w;
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  auto c = w.net.add_node();
  Endpoint ea(w.tx, a), eb(w.tx, b), ec(w.tx, c);
  eb.join_group(5);
  int b_got = 0, c_got = 0;
  eb.on(1, [&](sim::NodeId, const Message&) { ++b_got; });
  ec.on(1, [&](sim::NodeId, const Message&) { ++c_got; });
  Message m;
  m.type = 1;
  ea.multicast(5, m);
  w.run_all();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 0);  // not a member
}

// ---------------- Correlator ----------------

TEST(CorrelatorTest, RoutesByOpId) {
  World w;
  Correlator c(w.queue);
  auto id = c.next_op_id();
  int calls = 0;
  c.expect(id, [&](sim::NodeId, const Message&) {
    ++calls;
    return true;  // stay open
  });
  Message m;
  m.op_id = id;
  EXPECT_TRUE(c.route(1, m));
  EXPECT_TRUE(c.route(2, m));
  EXPECT_EQ(calls, 2);
  m.op_id = id + 100;
  EXPECT_FALSE(c.route(1, m));  // unknown exchange
}

TEST(CorrelatorTest, HandlerReturningFalseFinishes) {
  World w;
  Correlator c(w.queue);
  auto id = c.next_op_id();
  c.expect(id, [&](sim::NodeId, const Message&) { return false; });
  Message m;
  m.op_id = id;
  EXPECT_TRUE(c.route(1, m));
  EXPECT_FALSE(c.active(id));
  EXPECT_FALSE(c.route(1, m));
}

TEST(CorrelatorTest, DeadlineFires) {
  World w;
  Correlator c(w.queue);
  auto id = c.next_op_id();
  bool timed_out = false;
  c.expect(
      id, [](sim::NodeId, const Message&) { return true; },
      w.queue.now() + sim::seconds(1), [&] { timed_out = true; });
  w.run_all();
  EXPECT_TRUE(timed_out);
  EXPECT_FALSE(c.active(id));
}

TEST(CorrelatorTest, FinishCancelsDeadline) {
  World w;
  Correlator c(w.queue);
  auto id = c.next_op_id();
  bool timed_out = false;
  c.expect(
      id, [](sim::NodeId, const Message&) { return true; },
      w.queue.now() + sim::seconds(1), [&] { timed_out = true; });
  EXPECT_TRUE(c.finish(id));
  w.run_all();
  EXPECT_FALSE(timed_out);
  EXPECT_FALSE(c.finish(id));
}

TEST(CorrelatorTest, HandlerMayRegisterNewExchanges) {
  World w;
  Correlator c(w.queue);
  auto id = c.next_op_id();
  bool inner_called = false;
  c.expect(id, [&](sim::NodeId, const Message&) {
    // Registering inside the handler must not invalidate the dispatch.
    for (int i = 0; i < 50; ++i) {
      c.expect(c.next_op_id(), [](sim::NodeId, const Message&) { return true; });
    }
    inner_called = true;
    return false;
  });
  Message m;
  m.op_id = id;
  c.route(1, m);
  EXPECT_TRUE(inner_called);
  EXPECT_EQ(c.open_count(), 50u);
}

// ---------------- ResponderCache ----------------

TEST(Cache, PaperListDiscipline) {
  ResponderCache cache;
  cache.add(10);
  cache.add(20);
  cache.add(30);
  EXPECT_EQ(cache.contact_order(), (std::vector<sim::NodeId>{10, 20, 30}));
  cache.add(20);  // duplicate: no move
  EXPECT_EQ(cache.contact_order(), (std::vector<sim::NodeId>{10, 20, 30}));
  cache.remove(10);  // non-responder dropped
  EXPECT_EQ(cache.contact_order(), (std::vector<sim::NodeId>{20, 30}));
  cache.add(10);  // re-appears at the bottom
  EXPECT_EQ(cache.contact_order(), (std::vector<sim::NodeId>{20, 30, 10}));
}

TEST(Cache, StableNodesDriftToTop) {
  // The §3.1.3 emergent property: flaky nodes get removed and re-added at
  // the bottom, so consistently-responding nodes end up on top.
  ResponderCache cache;
  cache.add(1);  // flaky
  cache.add(2);  // stable
  for (int round = 0; round < 3; ++round) {
    cache.remove(1);
    cache.add(1);
  }
  EXPECT_EQ(cache.contact_order().front(), 2u);
}

TEST(Cache, StabilityOrderingUsesHistory) {
  ResponderCache cache(ResponderCache::Ordering::kByStability);
  cache.add(1);
  cache.add(2);
  cache.add(3);
  for (int i = 0; i < 8; ++i) cache.record_success(3);
  for (int i = 0; i < 8; ++i) cache.record_failure(1);
  cache.record_success(1);
  auto order = cache.contact_order();
  EXPECT_EQ(order.front(), 3u);  // best history first
  EXPECT_EQ(order.back(), 1u);   // worst last
}

TEST(Cache, UnknownPeerRanksMidTable) {
  ResponderCache cache(ResponderCache::Ordering::kByStability);
  EXPECT_DOUBLE_EQ(cache.response_rate(99), 0.5);
}

// ---------------- Discovery ----------------

struct DiscoveryFixture : ::testing::Test {
  World w;

  struct Node {
    std::unique_ptr<Endpoint> ep;
    std::unique_ptr<ResponderCache> cache;
    std::unique_ptr<Discovery> disc;
  };

  Node make_node() {
    Node n;
    auto id = w.net.add_node();
    n.ep = std::make_unique<Endpoint>(w.tx, id);
    n.cache = std::make_unique<ResponderCache>();
    n.disc = std::make_unique<Discovery>(*n.ep, w.queue, *n.cache);
    n.disc->enable_responder();
    return n;
  }
};

TEST_F(DiscoveryFixture, ProbeFindsVisibleResponders) {
  auto a = make_node();
  auto b = make_node();
  auto c = make_node();
  std::size_t found = 0;
  a.disc->probe(sim::milliseconds(50), [&](std::size_t n) { found = n; });
  w.run_all();
  EXPECT_EQ(found, 2u);
  EXPECT_TRUE(a.cache->contains(b.ep->node()));
  EXPECT_TRUE(a.cache->contains(c.ep->node()));
}

TEST_F(DiscoveryFixture, SecondProbeFindsNothingNew) {
  auto a = make_node();
  auto b = make_node();
  std::size_t found = 99;
  a.disc->probe(sim::milliseconds(50), [&](std::size_t) {});
  w.run_all();
  a.disc->probe(sim::milliseconds(50), [&](std::size_t n) { found = n; });
  w.run_all();
  EXPECT_EQ(found, 0u);
}

TEST_F(DiscoveryFixture, ConcurrentProbesCoalesce) {
  auto a = make_node();
  auto b = make_node();
  int callbacks = 0;
  a.disc->probe(sim::milliseconds(50), [&](std::size_t) { ++callbacks; });
  a.disc->probe(sim::milliseconds(50), [&](std::size_t) { ++callbacks; });
  w.run_all();
  EXPECT_EQ(callbacks, 2);
  EXPECT_EQ(a.disc->stats().probes_sent, 1u) << "probes must coalesce";
}

TEST_F(DiscoveryFixture, UnavailableResponderStaysSilent) {
  auto a = make_node();
  auto id = w.net.add_node();
  Endpoint ep(w.tx, id);
  ResponderCache cache;
  Discovery disc(ep, w.queue, cache);
  disc.enable_responder([] { return false; });  // declines all probes
  std::size_t found = 99;
  a.disc->probe(sim::milliseconds(50), [&](std::size_t n) { found = n; });
  w.run_all();
  EXPECT_EQ(found, 0u);
}

TEST_F(DiscoveryFixture, OutOfRangeNodesNotDiscovered) {
  w.net.set_radio_range(10.0);
  auto a = make_node();
  auto b = make_node();
  w.net.set_position(b.ep->node(), {500, 0});
  std::size_t found = 99;
  a.disc->probe(sim::milliseconds(50), [&](std::size_t n) { found = n; });
  w.run_all();
  EXPECT_EQ(found, 0u);
  EXPECT_FALSE(a.cache->contains(b.ep->node()));
}


// Correlator teardown walks the open-exchange table cancelling deadline
// events; the table is ordered now so teardown is deterministic, and no
// cancelled deadline may fire afterwards.
TEST(CorrelatorTest, TeardownCancelsOpenDeadlines) {
  World w;
  bool timed_out = false;
  {
    Correlator c(w.queue);
    for (int i = 0; i < 8; ++i) {
      c.expect(
          c.next_op_id(), [](sim::NodeId, const Message&) { return true; },
          w.queue.now() + sim::seconds(1), [&] { timed_out = true; });
    }
  }
  w.run_all();
  EXPECT_FALSE(timed_out);
}
}  // namespace
}  // namespace tiamat::net
