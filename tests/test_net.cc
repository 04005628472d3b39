// Unit tests for the messaging layer: envelope codec, endpoint dispatch,
// correlation, multicast discovery, and the §3.1.3 responder list.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/discovery.h"
#include "net/endpoint.h"
#include "net/message.h"
#include "net/responder_cache.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "sim/random.h"
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

std::string hex(const tuples::Bytes& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (std::uint8_t c : b) {
    s += kDigits[c >> 4];
    s += kDigits[c & 0xF];
  }
  return s;
}

/// `byte` (two hex digits) `n` times.
std::string hex_run(const std::string& byte, std::size_t n) {
  std::string s;
  for (std::size_t i = 0; i < n; ++i) s += byte;
  return s;
}

// Every value type, with a string and a blob long enough for two-byte
// varint lengths.
Tuple pinned_tuple() {
  return Tuple{std::int64_t{0x1122334455667788}, -1.25e10, false,
               std::string(130, 's'), tuples::Blob(200, 0x5A)};
}

// Every field kind.
Pattern pinned_pattern() {
  return Pattern{7, tuples::any_string(), tuples::any(),
                 tuples::Field::range(-1.5, 2.5),
                 tuples::Field::prefix("http")};
}

// The exact bytes of a tuple, a pattern and a message carrying one header of
// each value type and both payloads. Round trips would survive a consistent
// change of byte order or tag layout; these strings would not.
TEST(MessageCodec, WireBytesArePinned) {
  const std::string tuple_hex =
      "05"                                     // arity
      "00" "8877665544332211"                  // int
      "01" "000000e8764807c2"                  // double -1.25e10
      "02" "00"                                // bool
      "03" "8201" + hex_run("73", 130) +       // string, 2-byte length
      "04" "c801" + hex_run("5a", 200);        // blob, 2-byte length
  const std::string pattern_hex =
      "05"                                     // arity
      "00" "00" "0700000000000000"             // actual int 7
      "01" "03"                                // formal string
      "02"                                     // wildcard
      "03" "000000000000f8bf" "0000000000000440"  // range [-1.5, 2.5]
      "04" "04" "68747470";                    // prefix "http"
  const std::string message_hex =
      "0a00" "efcdab8967452301" "d4c3b2a1"     // type, op_id, origin
      "03"                                     // has tuple and pattern
      "05"                                     // header count
      "00" "feffffffffffffff"                  // int -2
      "01" "9a9999999999b93f"                  // double 0.1
      "02" "01"                                // bool
      "03" "03" "686472"                       // string "hdr"
      "04" "02" "dead" +                       // blob
      tuple_hex + pattern_hex;

  EXPECT_EQ(hex(tuples::encode_tuple(pinned_tuple())), tuple_hex);
  EXPECT_EQ(hex(tuples::encode_pattern(pinned_pattern())), pattern_hex);

  Message m;
  m.type = kOpRequest;
  m.op_id = 0x0123456789ABCDEFull;
  m.origin = 0xA1B2C3D4u;
  m.h(std::int64_t{-2}).h(0.1).h(true).h("hdr").h(tuples::Blob{0xDE, 0xAD});
  m.tuple = pinned_tuple();
  m.pattern = pinned_pattern();
  EXPECT_EQ(hex(encode_message(m)), message_hex);
}

// A varint longer than ten bytes, or a tenth byte with more than bit 63,
// is malformed wherever a varint sits on the wire: a peer controls every
// count, arity and length.
TEST(Codec, OverlongVarintRejected) {
  tuples::Bytes overlong(10, 0x80);  // ten continuation bytes...
  overlong.push_back(0x00);          // ...then a terminator
  tuples::Bytes wide(9, 0xFF);       // a tenth byte carrying bit 64
  wide.push_back(0x02);
  for (const tuples::Bytes& bad : {overlong, wide}) {
    tuples::Reader r(bad);
    EXPECT_THROW(r.varint(), tuples::DecodeError) << hex(bad);
    // As a tuple's arity.
    EXPECT_FALSE(tuples::try_decode_tuple(bad).has_value()) << hex(bad);
    // As a message's header count, the last byte of an empty message.
    Message m;
    m.type = kProbe;
    tuples::Bytes msg = encode_message(m);
    msg.pop_back();
    msg.insert(msg.end(), bad.begin(), bad.end());
    EXPECT_FALSE(decode_message(msg).has_value()) << hex(bad);
  }

  // Every encoding the writer produces still reads back, and so does a
  // zero-padded ten-byte one.
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{127},
                          std::uint64_t{128}, std::uint64_t{1} << 63,
                          UINT64_MAX}) {
    tuples::Writer w;
    w.varint(v);
    tuples::Reader r(w.data());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.done());
  }
  tuples::Bytes padded(9, 0x80);
  padded.push_back(0x01);
  tuples::Reader r(padded);
  EXPECT_EQ(r.varint(), std::uint64_t{1} << 63);
  EXPECT_TRUE(r.done());
}

// String, blob and prefix lengths run 0..300, across the one/two-byte varint
// length boundary at 128.
tuples::Value random_value(sim::Rng& rng) {
  switch (rng.uniform(0, 4)) {
    case 0:
      return rng.uniform(INT64_MIN, INT64_MAX);
    case 1:
      return rng.real(-1e9, 1e9);
    case 2:
      return rng.chance(0.5);
    case 3:
      return std::string(rng.index(301), 'q');
    default:
      return tuples::Blob(rng.index(301), 0xB7);
  }
}

tuples::Field random_field(sim::Rng& rng) {
  switch (rng.uniform(0, 4)) {
    case 0:
      return random_value(rng);
    case 1:
      return tuples::Field::formal(static_cast<tuples::Type>(rng.uniform(0, 4)));
    case 2:
      return tuples::any();
    case 3:
      return tuples::Field::range(rng.real(-10, 0), rng.real(0, 10));
    default:
      return tuples::Field::prefix(std::string(rng.index(301), 'p'));
  }
}

Tuple random_tuple(sim::Rng& rng) {
  std::vector<tuples::Value> fields(rng.index(7));
  for (auto& v : fields) v = random_value(rng);
  return Tuple(std::move(fields));
}

Pattern random_pattern(sim::Rng& rng) {
  std::vector<tuples::Field> fields;
  for (auto n = rng.index(7); n > 0; --n) fields.push_back(random_field(rng));
  return Pattern(std::move(fields));
}

// encoded_size(x) is the length of x's encoding, and an encoder that
// reserves it never grows its buffer past that (capacity() == size() under
// libstdc++, whose reserve allocates exactly what it is asked for).
TEST(Codec, EncodedSizeIsExact) {
  auto expect_exact = [](std::size_t size, const tuples::Bytes& b) {
    EXPECT_EQ(b.size(), size);
    EXPECT_EQ(b.capacity(), size);
  };
  sim::Rng rng(4099);
  for (int i = 0; i < 500; ++i) {
    const tuples::Value v = random_value(rng);
    tuples::Writer wv(tuples::encoded_size(v));
    tuples::encode(wv, v);
    expect_exact(tuples::encoded_size(v), wv.data());

    const tuples::Field f = random_field(rng);
    tuples::Writer wf(tuples::encoded_size(f));
    tuples::encode(wf, f);
    expect_exact(tuples::encoded_size(f), wf.data());

    const Tuple t = random_tuple(rng);
    expect_exact(tuples::encoded_size(t), tuples::encode_tuple(t));
    const Pattern p = random_pattern(rng);
    expect_exact(tuples::encoded_size(p), tuples::encode_pattern(p));

    Message m;
    m.type = static_cast<std::uint16_t>(rng.uniform(0, UINT16_MAX));
    m.op_id = static_cast<std::uint64_t>(rng.uniform(INT64_MIN, INT64_MAX));
    m.origin = static_cast<std::uint32_t>(rng.uniform(0, UINT32_MAX));
    for (auto n = rng.index(5); n > 0; --n) m.h(random_value(rng));
    if (rng.chance(0.5)) m.tuple = random_tuple(rng);
    if (rng.chance(0.5)) m.pattern = random_pattern(rng);
    expect_exact(encoded_size(m), encode_message(m));
  }
  // varint_size on both sides of every 7-bit group boundary.
  for (unsigned bits = 1; bits < 64; ++bits) {
    for (std::uint64_t v : {(std::uint64_t{1} << bits) - 1,
                            std::uint64_t{1} << bits}) {
      tuples::Writer w;
      w.varint(v);
      EXPECT_EQ(w.size(), tuples::varint_size(v)) << v;
    }
  }
  EXPECT_EQ(tuples::varint_size(0), 1u);
  EXPECT_EQ(tuples::varint_size(UINT64_MAX), tuples::kMaxVarintBytes);
}

// One message of each shape Tiamat's core and discovery send.
std::vector<Message> tiamat_message_shapes() {
  auto msg = [](std::uint16_t type) {
    Message m;
    m.type = type;
    m.op_id = 0x1234;
    m.origin = 3;
    return m;
  };
  std::vector<Message> out;
  for (std::uint16_t t : {kProbe, kProbeReply, kConfirm, kRelease, kCancelOp,
                          kConfirmAck}) {
    out.push_back(msg(t));
  }
  Message request = msg(kOpRequest);  // (kind, deadline), pattern
  request.h(std::int64_t{3}).h(std::int64_t{2'000'000});
  request.pattern = Pattern{"page", tuples::any_string(), tuples::any()};
  out.push_back(request);
  Message found = msg(kOpResponse);  // (found, serving), tuple
  found.h(true).h(true);
  found.tuple = Tuple{"page", "http://a/b", tuples::Blob(300, 0x42)};
  out.push_back(found);
  Message missed = msg(kOpResponse);
  missed.h(false).h(true);
  out.push_back(missed);
  Message remote_out = msg(kRemoteOut);  // (ttl), tuple
  remote_out.h(std::int64_t{-1});
  remote_out.tuple = Tuple{"body", 1.5, tuples::Blob(1024, 0x07)};
  out.push_back(remote_out);
  Message remote_eval = msg(kRemoteEval);  // (name, ttl), args
  remote_eval.h("square").h(std::int64_t{5000});
  remote_eval.tuple = Tuple{12};
  out.push_back(remote_eval);
  for (std::uint16_t t : {kRemoteOutAck, kRemoteEvalAck}) {  // (accepted)
    Message ack = msg(t);
    ack.h(false);
    out.push_back(ack);
  }
  return out;
}

// Truncated, bit-flipped and extended encodings of every message shape
// decode to a message or to nullopt; nothing escapes the decoder. A message
// that does decode re-encodes to at most the bytes it came from, and that
// encoding is stable.
TEST(MessageCodec, MutatedEncodingsNeverCrash) {
  sim::Rng rng(7919);
  std::size_t decoded = 0, rejected = 0;
  for (const Message& shape : tiamat_message_shapes()) {
    const tuples::Bytes clean = encode_message(shape);
    for (int i = 0; i < 400; ++i) {
      tuples::Bytes b = clean;
      switch (rng.uniform(0, 2)) {
        case 0:
          b.resize(rng.index(b.size()));
          break;
        case 1:
          for (auto k = rng.uniform(1, 4); k > 0; --k) {
            b[rng.index(b.size())] ^=
                static_cast<std::uint8_t>(rng.uniform(1, 255));
          }
          break;
        default:
          for (auto k = rng.uniform(1, 16); k > 0; --k) {
            b.push_back(static_cast<std::uint8_t>(rng.uniform(0, 255)));
          }
          break;
      }
      std::optional<Message> back;
      ASSERT_NO_THROW(back = decode_message(b)) << hex(b);
      if (!back) {
        ++rejected;
        continue;
      }
      ++decoded;
      const tuples::Bytes again = encode_message(*back);
      EXPECT_LE(again.size(), b.size()) << hex(b);
      const auto twice = decode_message(again);
      ASSERT_TRUE(twice.has_value()) << hex(b);
      EXPECT_EQ(encode_message(*twice), again) << hex(b);
    }
  }
  // Both outcomes occur, so the mutations reach past the first check.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
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
