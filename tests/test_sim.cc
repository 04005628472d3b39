// Unit tests for the simulator substrate: event queue, RNG, network,
// mobility, topology helpers and statistics accumulators.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/mobility.h"
#include "sim/network.h"
#include "sim/random.h"
#include "sim/topology.h"
#include "tests/test_util.h"

namespace tiamat::sim {
namespace {

// ---------------- EventQueue ----------------

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, SameInstantFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  q.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleInPastClampsToNow) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.run_until_idle();
  EXPECT_EQ(q.now(), 100);
  bool fired = false;
  q.schedule_at(50, [&] { fired = true; });
  q.run_until_idle();
  EXPECT_TRUE(fired);
  EXPECT_EQ(q.now(), 100);  // did not go backwards
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventId id = q.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  q.run_until_idle();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  EventId id = q.schedule_at(10, [] {});
  q.run_until_idle();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, DoubleCancelReturnsFalse) {
  EventQueue q;
  EventId id = q.schedule_at(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelBogusIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
  EXPECT_FALSE(q.cancel(kInvalidEvent));
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  q.schedule_at(30, [&] { ++fired; });
  EXPECT_EQ(q.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 20);
  q.run_until_idle();
  EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesClockEvenWhenEmpty) {
  EventQueue q;
  q.run_until(500);
  EXPECT_EQ(q.now(), 500);
}

TEST(EventQueue, EventsScheduledWhileRunningFire) {
  EventQueue q;
  int count = 0;
  q.schedule_at(10, [&] {
    ++count;
    q.schedule_after(5, [&] { ++count; });
  });
  q.run_until_idle();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now(), 15);
}

TEST(EventQueue, PendingCountTracksLiveEvents) {
  EventQueue q;
  EventId a = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  q.run_until_idle();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.idle());
}

TEST(EventQueue, StepFiresExactlyOne) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] { ++fired; });
  q.schedule_at(20, [&] { ++fired; });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, CancelReleasesCallbackAtOnce) {
  EventQueue q;
  auto held = std::make_shared<int>(0);
  std::weak_ptr<int> watch = held;
  EventId id = q.schedule_at(30 * kSecond, [held] { ++*held; });
  held.reset();
  ASSERT_FALSE(watch.expired());
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(watch.expired());  // not parked in the queue until 30 s
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, StaleIdNeverCancelsAReusedSlot) {
  for (bool fire_first : {false, true}) {
    SCOPED_TRACE(fire_first ? "fired" : "cancelled");
    EventQueue q;
    EventId old = q.schedule_at(10, [] {});
    if (fire_first) {
      ASSERT_TRUE(q.step());
    } else {
      ASSERT_TRUE(q.cancel(old));
    }
    bool fired = false;
    EventId fresh = q.schedule_at(20, [&] { fired = true; });
    EXPECT_NE(fresh, old);
    EXPECT_FALSE(q.cancel(old));
    EXPECT_EQ(q.pending(), 1u);
    q.run_until_idle();
    EXPECT_TRUE(fired);
  }
}

// Drives an EventQueue and a reference model through the same operations.
// The model states the queue's contract directly: a std::map keyed by
// (when, schedule order). Each event records its tag when it fires and may
// then cancel an event (possibly itself) and schedule a follow-up; both
// sides apply the same scripted behaviour, so their logs must agree.
class QueueDifferential {
 public:
  struct Behaviour {
    int cancel_tag = -1;  // event to cancel when this one fires
    int child_tag = -1;   // event to schedule when this one fires ...
    Duration child_delay = 0;  // ... this far from then
  };

  EventQueue queue;

  int add_tag() {
    behaviours_.emplace_back();
    ids_.push_back(kInvalidEvent);
    model_keys_.emplace_back();
    return static_cast<int>(behaviours_.size()) - 1;
  }
  Behaviour& behaviour(int tag) { return behaviours_[tag]; }
  std::size_t tags() const { return behaviours_.size(); }
  EventId id(int tag) const { return ids_[tag]; }
  bool issued(EventId id) const { return issued_.contains(id); }
  bool ids_unique() const { return ids_unique_; }

  void schedule(int tag, Time when) {
    real_schedule(tag, when);
    model_schedule(tag, when);
  }

  bool model_cancel(int tag) {
    return model_keys_[tag] && model_live_.erase(*model_keys_[tag]) == 1;
  }
  bool model_step() {
    if (model_live_.empty()) return false;
    const auto [key, tag] = *model_live_.begin();
    model_live_.erase(model_live_.begin());
    model_now_ = key.first;
    model_log_.push_back(tag);
    const Behaviour b = behaviours_[tag];
    if (b.cancel_tag >= 0) {
      model_log_.push_back(model_cancel(b.cancel_tag) ? kCancelled : kMissed);
    }
    if (b.child_tag >= 0) {
      model_schedule(b.child_tag, model_now_ + b.child_delay);
    }
    return true;
  }
  std::size_t model_run_until(Time deadline) {
    std::size_t fired = 0;
    while (!model_live_.empty() &&
           model_live_.begin()->first.first <= deadline) {
      model_step();
      ++fired;
    }
    model_now_ = std::max(model_now_, deadline);
    return fired;
  }
  std::size_t model_run_until_idle() {
    std::size_t fired = 0;
    while (model_step()) ++fired;
    return fired;
  }
  Time model_now() const { return model_now_; }
  std::size_t model_pending() const { return model_live_.size(); }

  bool logs_match() const { return real_log_ == model_log_; }
  std::size_t fired_and_cancels() const { return real_log_.size(); }

 private:
  // Log entries below zero record the result of a cancel made by a callback.
  static constexpr int kCancelled = -1;
  static constexpr int kMissed = -2;
  using Key = std::pair<Time, std::uint64_t>;

  void real_schedule(int tag, Time when) {
    const EventId id = queue.schedule_at(when, [this, tag] { real_fire(tag); });
    ids_unique_ =
        ids_unique_ && id != kInvalidEvent && issued_.insert(id).second;
    ids_[tag] = id;
  }
  void real_fire(int tag) {
    real_log_.push_back(tag);
    const Behaviour b = behaviours_[tag];
    if (b.cancel_tag >= 0) {
      real_log_.push_back(queue.cancel(ids_[b.cancel_tag]) ? kCancelled
                                                           : kMissed);
    }
    if (b.child_tag >= 0) {
      real_schedule(b.child_tag, queue.now() + b.child_delay);
    }
  }
  void model_schedule(int tag, Time when) {
    const Key key{std::max(when, model_now_), model_seq_++};
    model_live_.emplace(key, tag);
    model_keys_[tag] = key;
  }

  std::vector<Behaviour> behaviours_;
  std::vector<EventId> ids_;  // per tag; kInvalidEvent until scheduled
  std::set<EventId> issued_;
  bool ids_unique_ = true;
  std::vector<int> real_log_;

  Time model_now_ = 0;
  std::uint64_t model_seq_ = 0;
  std::map<Key, int> model_live_;
  std::vector<std::optional<Key>> model_keys_;  // per tag, once scheduled
  std::vector<int> model_log_;
};

TEST(EventQueue, MatchesReferenceModelUnderRandomOperations) {
  QueueDifferential d;
  Rng rng(20030519);
  std::size_t max_pending = 0;
  for (int op = 0; op < 10000; ++op) {
    SCOPED_TRACE(op);
    const Time now = d.queue.now();
    const std::int64_t dice = rng.uniform(0, 999);
    if (dice < 450) {
      const int tag = d.add_tag();
      switch (rng.uniform(0, 9)) {
        case 0:
          d.behaviour(tag).cancel_tag = tag;  // its own id, stale by then
          break;
        case 1:
          d.behaviour(tag).cancel_tag = static_cast<int>(rng.index(d.tags()));
          break;
        case 2: {
          const int child = d.add_tag();
          d.behaviour(tag).child_tag = child;
          d.behaviour(tag).child_delay = rng.uniform(0, 300);
          break;
        }
        default:
          break;
      }
      const std::int64_t when_kind = rng.uniform(0, 19);
      const Time when = when_kind < 3   ? now - rng.uniform(1, 100)
                        : when_kind < 6 ? now
                                        : now + rng.uniform(1, 10000);
      d.schedule(tag, when);
    } else if (dice < 600) {
      if (d.tags() > 0) {  // live, fired, cancelled or not yet scheduled
        const int tag = static_cast<int>(rng.index(d.tags()));
        ASSERT_EQ(d.queue.cancel(d.id(tag)), d.model_cancel(tag));
      }
    } else if (dice < 620) {
      EventId bogus = kInvalidEvent;
      while (bogus == kInvalidEvent || d.issued(bogus)) {
        bogus = static_cast<EventId>(rng.engine()());
      }
      ASSERT_FALSE(d.queue.cancel(bogus));
    } else if (dice < 635) {
      ASSERT_FALSE(d.queue.cancel(kInvalidEvent));
    } else if (dice < 800) {
      ASSERT_EQ(d.queue.step(), d.model_step());
    } else if (dice < 998) {
      const Time deadline = now + rng.uniform(-50, 100);
      ASSERT_EQ(d.queue.run_until(deadline), d.model_run_until(deadline));
    } else {
      ASSERT_EQ(d.queue.run_until_idle(), d.model_run_until_idle());
    }
    ASSERT_TRUE(d.logs_match());
    ASSERT_EQ(d.queue.now(), d.model_now());
    ASSERT_EQ(d.queue.pending(), d.model_pending());
    ASSERT_TRUE(d.ids_unique());
    max_pending = std::max(max_pending, d.queue.pending());
  }
  // The run must have built a heap more than four levels deep (1 + 4 + 16 +
  // 64 keys fill four) and a long history.
  EXPECT_GT(max_pending, 100u);
  EXPECT_GT(d.fired_and_cancels(), 3000u);
}

// ---------------- Rng ----------------

TEST(Rng, SameSeedSameSequence) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1000000), b.uniform(0, 1000000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  bool any_diff = false;
  for (int i = 0; i < 20; ++i) {
    if (a.uniform(0, 1 << 30) != b.uniform(0, 1 << 30)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformStaysInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    auto v = r.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, IndexStaysInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.index(7), 7u);
}

TEST(Rng, ChanceExtremes) {
  Rng r(1);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, ForkIsIndependentOfLaterParentDraws) {
  Rng a(7);
  Rng fork1 = a.fork();
  std::vector<std::int64_t> seq1;
  for (int i = 0; i < 10; ++i) seq1.push_back(fork1.uniform(0, 1 << 30));

  Rng b(7);
  Rng fork2 = b.fork();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fork2.uniform(0, 1 << 30), seq1[i]);
  }
}

// ---------------- Network ----------------

using tiamat::testing::World;

TEST(Network, EveryoneVisibleWithoutRadioRange) {
  World w;
  auto a = w.net.add_node({0, 0});
  auto b = w.net.add_node({1000, 1000});
  EXPECT_TRUE(w.net.visible(a, b));
  EXPECT_TRUE(w.net.visible(b, a));
}

TEST(Network, RadioRangeLimitsVisibility) {
  World w;
  w.net.set_radio_range(10.0);
  auto a = w.net.add_node({0, 0});
  auto b = w.net.add_node({5, 0});
  auto c = w.net.add_node({50, 0});
  EXPECT_TRUE(w.net.visible(a, b));
  EXPECT_FALSE(w.net.visible(a, c));
  EXPECT_FALSE(w.net.visible(c, a));
}

TEST(Network, LinkOverrideBeatsRange) {
  World w;
  w.net.set_radio_range(10.0);
  auto a = w.net.add_node({0, 0});
  auto b = w.net.add_node({500, 0});
  EXPECT_FALSE(w.net.visible(a, b));
  w.net.set_link(a, b, true);
  EXPECT_TRUE(w.net.visible(a, b));
  w.net.set_link(a, b, false);
  EXPECT_FALSE(w.net.visible(a, b));
  w.net.clear_link_override(a, b);
  EXPECT_FALSE(w.net.visible(a, b));  // back to range-derived
}

TEST(Network, OfflineNodeInvisible) {
  World w;
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  w.net.set_online(b, false);
  EXPECT_FALSE(w.net.visible(a, b));
  w.net.set_online(b, true);
  EXPECT_TRUE(w.net.visible(a, b));
}

TEST(Network, UnicastDeliversWithLatency) {
  World w;
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  sim::Time delivered_at = -1;
  w.net.bind(b, [&](NodeId from, const Payload& p) {
    EXPECT_EQ(from, a);
    EXPECT_EQ(p.size(), 3u);
    delivered_at = w.queue.now();
  });
  w.net.send(a, b, Payload{1, 2, 3});
  w.run_all();
  EXPECT_EQ(delivered_at, 2 * kMillisecond);
  EXPECT_EQ(w.net.stats().deliveries, 1u);
}

TEST(Network, SendToInvisibleNodeDrops) {
  World w;
  w.net.set_radio_range(10.0);
  auto a = w.net.add_node({0, 0});
  auto b = w.net.add_node({100, 0});
  bool got = false;
  w.net.bind(b, [&](NodeId, const Payload&) { got = true; });
  w.net.send(a, b, Payload{1});
  w.run_all();
  EXPECT_FALSE(got);
  EXPECT_EQ(w.net.stats().drops_invisible, 1u);
}

TEST(Network, MovingApartMidFlightDropsPacket) {
  World w;
  w.net.set_radio_range(10.0);
  auto a = w.net.add_node({0, 0});
  auto b = w.net.add_node({5, 0});
  bool got = false;
  w.net.bind(b, [&](NodeId, const Payload&) { got = true; });
  w.net.send(a, b, Payload{1});
  w.net.set_position(b, {100, 0});  // departs before delivery
  w.run_all();
  EXPECT_FALSE(got);
  EXPECT_EQ(w.net.stats().drops_invisible, 1u);
}

TEST(Network, RemovedNodeDropsInFlight) {
  World w;
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  w.net.bind(b, [&](NodeId, const Payload&) { FAIL(); });
  w.net.send(a, b, Payload{1});
  w.net.remove_node(b);
  w.run_all();
  EXPECT_EQ(w.net.stats().drops_dead, 1u);
}

// Crash/restart semantics for the chaos harness: re-adding a removed node
// id must start from a clean state — no inherited link overrides, groups,
// handler, or in-flight traffic addressed to the previous incarnation.
TEST(Network, ReAddedNodeStartsFromCleanState) {
  World w;
  auto a = w.net.add_node({0, 0});
  auto b = w.net.add_node({5, 0});
  const GroupId g = 3;
  w.net.join_group(b, g);
  w.net.set_link(a, b, false);  // scripted partition
  EXPECT_FALSE(w.net.visible(a, b));

  w.net.remove_node(b);
  EXPECT_TRUE(w.net.add_node_at(b, {7, 0}));
  // Clean slate: the old partition override and group membership are gone.
  EXPECT_TRUE(w.net.visible(a, b));
  int b_got = 0;
  w.net.bind(b, [&](NodeId, const Payload&) { ++b_got; });
  w.net.multicast(a, g, Payload{1});
  w.run_all();
  EXPECT_EQ(b_got, 0) << "restarted node inherited group membership";
  w.net.send(a, b, Payload{2});
  w.run_all();
  EXPECT_EQ(b_got, 1);
}

TEST(Network, InFlightPacketNeverReachesRestartedIncarnation) {
  World w;
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  w.net.send(a, b, Payload{1});  // in flight to the first incarnation
  w.net.remove_node(b);
  EXPECT_TRUE(w.net.add_node_at(b));
  bool got = false;
  w.net.bind(b, [&](NodeId, const Payload&) { got = true; });
  w.run_all();
  EXPECT_FALSE(got) << "restarted node received its past life's packet";
  EXPECT_EQ(w.net.stats().drops_dead, 1u);
}

TEST(Network, AddNodeAtRejectsLiveAndUnknownIds) {
  World w;
  auto a = w.net.add_node();
  EXPECT_FALSE(w.net.add_node_at(a));      // still present
  EXPECT_FALSE(w.net.add_node_at(a + 7));  // never allocated
  w.net.remove_node(a);
  EXPECT_TRUE(w.net.add_node_at(a));
  EXPECT_TRUE(w.net.node_exists(a));
  // Fresh ids keep advancing past re-added ones.
  auto c = w.net.add_node();
  EXPECT_GT(c, a);
}

TEST(Network, MulticastReachesVisibleMembersOnly) {
  World w;
  w.net.set_radio_range(10.0);
  auto a = w.net.add_node({0, 0});
  auto b = w.net.add_node({5, 0});   // visible member
  auto c = w.net.add_node({50, 0});  // invisible member
  auto d = w.net.add_node({5, 5});   // visible non-member
  const GroupId g = 9;
  w.net.join_group(b, g);
  w.net.join_group(c, g);
  int b_got = 0, c_got = 0, d_got = 0;
  w.net.bind(b, [&](NodeId, const Payload&) { ++b_got; });
  w.net.bind(c, [&](NodeId, const Payload&) { ++c_got; });
  w.net.bind(d, [&](NodeId, const Payload&) { ++d_got; });
  w.net.multicast(a, g, Payload{1});
  w.run_all();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 0);
  EXPECT_EQ(d_got, 0);
}

TEST(Network, SenderDoesNotReceiveOwnMulticast) {
  World w;
  auto a = w.net.add_node();
  w.net.join_group(a, 3);
  int got = 0;
  w.net.bind(a, [&](NodeId, const Payload&) { ++got; });
  w.net.multicast(a, 3, Payload{1});
  w.run_all();
  EXPECT_EQ(got, 0);
}

TEST(Network, LossDropsSomePackets) {
  LinkModel m = World::quiet_links();
  m.loss = 0.5;
  World w(7, m);
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  int got = 0;
  w.net.bind(b, [&](NodeId, const Payload&) { ++got; });
  for (int i = 0; i < 200; ++i) w.net.send(a, b, Payload{1});
  w.run_all();
  EXPECT_GT(got, 50);
  EXPECT_LT(got, 150);
  EXPECT_EQ(w.net.stats().drops_loss + static_cast<std::uint64_t>(got), 200u);
}

TEST(Network, PayloadSizeAddsLatency) {
  LinkModel m = World::quiet_links();
  m.per_kilobyte = 1000;  // 1 ms per KiB
  World w(1, m);
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  sim::Time at = 0;
  w.net.bind(b, [&](NodeId, const Payload&) { at = w.queue.now(); });
  w.net.send(a, b, Payload(2048, 0));
  w.run_all();
  EXPECT_EQ(at, 2 * kMillisecond + 2000);
}

TEST(Network, VisibleFromListsPeersInIdOrder) {
  World w;
  auto a = w.net.add_node();
  auto b = w.net.add_node();
  auto c = w.net.add_node();
  auto vis = w.net.visible_from(a);
  ASSERT_EQ(vis.size(), 2u);
  EXPECT_EQ(vis[0], b);
  EXPECT_EQ(vis[1], c);
}

TEST(Network, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    LinkModel m;
    m.jitter = 1000;
    m.loss = 0.1;
    World w(seed, m);
    auto a = w.net.add_node();
    auto b = w.net.add_node();
    std::vector<sim::Time> times;
    w.net.bind(b, [&](NodeId, const Payload&) { times.push_back(w.queue.now()); });
    for (int i = 0; i < 50; ++i) w.net.send(a, b, Payload{std::uint8_t(i)});
    w.run_all();
    return times;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// FNV-1a over every value folded in, eight bytes at a time.
struct Digest {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  }
};

// One seeded run through every path of the network, pinned to golden values:
// jitter and loss draws, a radio range with nodes moving while packets are in
// flight, scripted link overrides, an offline spell, a crash/restart with
// packets in flight to the dead incarnation, multicast to a group, and
// handlers that reply. Any change to which packets arrive, when, or what the
// ledgers count moves a digest.
TEST(Network, SeededTrafficIsPinned) {
  LinkModel m;  // default base latency and per-KiB cost
  m.jitter = 800;
  m.loss = 0.05;
  World w(2024, m);
  w.net.set_radio_range(40.0);
  constexpr GroupId kGroup = 5;
  std::vector<NodeId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(w.net.add_node({i * 15.0, 0}));

  Digest deliveries;
  std::uint64_t delivered = 0;
  auto attach = [&](NodeId n) {
    w.net.bind(n, [&, n](NodeId from, const Payload& p) {
      ++delivered;
      deliveries.add(static_cast<std::uint64_t>(w.net.now()));
      deliveries.add(from);
      deliveries.add(n);
      deliveries.add(p.size());
      for (std::uint8_t byte : p) deliveries.add(byte);
      // The first byte is a hop budget: spend one on a reply.
      if (!p.empty() && p[0] > 0) {
        Payload reply(p);
        --reply[0];
        w.net.send(n, from, std::move(reply));
      }
    });
    if (n % 2 == 0) w.net.join_group(n, kGroup);
  };
  for (NodeId n : ids) attach(n);

  for (int t = 0; t < 300; ++t) {
    w.queue.schedule_at(t * kMillisecond, [&, t] {
      const NodeId from = ids[t % 6];
      const NodeId to = ids[(t * 5 + 2) % 6];  // now and then the sender
      Payload p(1 + (t % 4) * 300, static_cast<std::uint8_t>(t));
      p[0] = static_cast<std::uint8_t>(t % 3);
      w.net.send(from, to, std::move(p));
      if (t % 10 == 0) {
        w.net.multicast(from, kGroup, Payload{1, static_cast<std::uint8_t>(t)});
      }
    });
  }
  // Each script step lands half a millisecond after a send, while packets
  // are in flight.
  auto at = [&](int ms, std::function<void()> fn) {
    w.queue.schedule_at(ms * kMillisecond + 500, std::move(fn));
  };
  at(20, [&] { w.net.set_position(ids[5], {200, 0}); });
  at(30, [&] { w.net.set_link(ids[0], ids[5], true); });
  at(45, [&] { w.net.set_link(ids[1], ids[2], false); });
  at(60, [&] { w.net.set_position(ids[5], {70, 0}); });
  at(80, [&] { w.net.set_online(ids[3], false); });
  at(95, [&] { w.net.set_online(ids[3], true); });
  at(120, [&] { w.net.clear_link_override(ids[1], ids[2]); });
  at(150, [&] { w.net.remove_node(ids[2]); });
  at(151, [&] {
    ASSERT_TRUE(w.net.add_node_at(ids[2], {30, 0}));
    attach(ids[2]);
  });
  at(200, [&] { w.net.set_position(ids[0], {-30, 0}); });
  w.run_all();

  EXPECT_EQ(delivered, 560u);
  EXPECT_EQ(deliveries.h, 14501770216749715952ull);
  const NetStats& s = w.net.stats();
  EXPECT_EQ(s.unicasts_sent, 587u);
  EXPECT_EQ(s.multicasts_sent, 30u);
  EXPECT_EQ(s.deliveries, delivered);
  EXPECT_EQ(s.drops_invisible, 56u);
  EXPECT_EQ(s.drops_loss, 27u);
  EXPECT_EQ(s.drops_dead, 3u);
  EXPECT_EQ(s.bytes_sent, 238962u);
  Digest links;
  std::size_t link_count = 0;
  for (const auto& [link, ls] : w.net.link_stats()) {
    ++link_count;
    links.add(link.first);
    links.add(link.second);
    links.add(ls.messages);
    links.add(ls.bytes);
  }
  EXPECT_EQ(link_count, 20u);
  EXPECT_EQ(links.h, 5325225161507991229ull);
  EXPECT_EQ(w.queue.now(), 307652);
}

// A handler runs from its node's entry while it adds nodes and sends. Neither
// may move the running handler (a one-pointer closure lives inside its
// std::function, so moving the entry would move the closure), nor reuse the
// buffer its payload argument refers to; the asan tree reports either as a
// use after free.
TEST(Network, HandlerMayGrowTheTableAndSend) {
  World w;
  struct State {
    World* w;
    NodeId a;
    NodeId b;
    std::vector<NodeId> added;
    Payload seen;
  };
  State st{&w, w.net.add_node(), w.net.add_node(), {}, {}};
  std::vector<Payload> at_a;
  w.net.bind(st.a, [&](NodeId, const Payload& p) { at_a.push_back(p); });
  w.net.bind(st.b, [s = &st](NodeId from, const Payload& p) {
    for (int i = 0; i < 100; ++i) s->added.push_back(s->w->net.add_node());
    s->w->net.send(s->b, s->a, Payload(p.size(), 0x11));
    s->w->net.send(s->b, s->a, Payload{0x22});
    // Only now read the payload.
    EXPECT_EQ(from, s->a);
    s->seen = p;
  });
  const Payload sent{1, 2, 3, 4, 5};
  w.net.send(st.a, st.b, sent);
  w.run_all();
  EXPECT_EQ(st.seen, sent);
  ASSERT_EQ(st.added.size(), 100u);
  EXPECT_EQ(st.added.front(), st.b + 1);
  EXPECT_EQ(st.added.back(), st.b + 100);
  for (NodeId n : st.added) EXPECT_TRUE(w.net.node_exists(n));
  ASSERT_EQ(at_a.size(), 2u);
  EXPECT_EQ(at_a[0], Payload(sent.size(), 0x11));
  EXPECT_EQ(at_a[1], Payload{0x22});
  EXPECT_EQ(w.net.stats().deliveries, 3u);
}

// The per-link ledger counts every transmission handed to the medium,
// delivered or not, per directed (from, to) in ascending order.
TEST(Network, LinkStatsCountEveryTransmission) {
  World w;
  const NodeId a = w.net.add_node();
  const NodeId b = w.net.add_node();
  const NodeId c = w.net.add_node();
  const NodeId d = w.net.add_node();
  const NodeId never = d + 10;  // no add_node returned it
  // Delivered, twice on one link.
  w.net.send(a, b, Payload(3, 0));
  w.net.send(a, b, Payload(2, 0));
  // Invisible at send: an offline peer and an id never allocated.
  w.net.set_online(c, false);
  w.net.send(a, c, Payload(5, 0));
  w.net.send(b, never, Payload(4, 0));
  // Lost on the medium.
  LinkModel lossy = World::quiet_links();
  lossy.loss = 1.0;
  w.net.set_link_model(lossy);
  w.net.send(b, a, Payload(7, 0));
  w.net.set_link_model(World::quiet_links());
  // Dead on arrival: the destination is removed while the packet flies.
  w.net.send(b, d, Payload(11, 0));
  w.net.remove_node(d);
  w.run_all();

  const NetStats& s = w.net.stats();
  EXPECT_EQ(s.deliveries, 2u);
  EXPECT_EQ(s.drops_invisible, 2u);
  EXPECT_EQ(s.drops_loss, 1u);
  EXPECT_EQ(s.drops_dead, 1u);
  EXPECT_EQ(s.bytes_sent, 32u);
  using Row = std::tuple<NodeId, NodeId, std::uint64_t, std::uint64_t>;
  auto rows = [&] {
    std::vector<Row> out;
    for (const auto& [link, ls] : w.net.link_stats()) {
      out.emplace_back(link.first, link.second, ls.messages, ls.bytes);
    }
    return out;
  };
  EXPECT_EQ(rows(), (std::vector<Row>{{a, b, 2, 5},
                                      {a, c, 1, 5},
                                      {b, a, 1, 7},
                                      {b, d, 1, 11},
                                      {b, never, 1, 4}}));

  w.net.reset_link_stats();
  EXPECT_TRUE(rows().empty());
  EXPECT_EQ(w.net.stats().bytes_sent, 32u);  // the totals are kept apart
  w.net.send(a, b, Payload(1, 0));
  EXPECT_EQ(rows(), (std::vector<Row>{{a, b, 1, 1}}));
}

// ---------------- Topology ----------------

TEST(Topology, CliqueFullyConnected) {
  World w;
  auto ids = make_clique(w.net, 5);
  for (auto a : ids) {
    for (auto b : ids) {
      if (a != b) {
        EXPECT_TRUE(w.net.visible(a, b));
      }
    }
  }
  EXPECT_EQ(connected_components(w.net, ids), 1u);
}

TEST(Topology, LineOnlyAdjacentVisible) {
  World w;
  auto ids = make_line(w.net, 5, 10.0);
  EXPECT_TRUE(w.net.visible(ids[0], ids[1]));
  EXPECT_FALSE(w.net.visible(ids[0], ids[2]));
  EXPECT_EQ(connected_components(w.net, ids), 1u);
}

TEST(Topology, GridFourNeighbourhood) {
  World w;
  auto ids = make_grid(w.net, 3, 3, 10.0);
  // centre node sees exactly 4 neighbours
  auto centre = ids[4];
  EXPECT_EQ(w.net.visible_from(centre).size(), 4u);
  EXPECT_EQ(connected_components(w.net, ids), 1u);
}

TEST(Topology, ComponentsCountsPartitions) {
  World w;
  w.net.set_radio_range(5.0);
  auto a = w.net.add_node({0, 0});
  auto b = w.net.add_node({1, 0});
  auto c = w.net.add_node({100, 0});
  EXPECT_EQ(connected_components(w.net, {a, b, c}), 2u);
}

// ---------------- Mobility ----------------

TEST(RandomWaypointTest, NodesStayInArenaAndMove) {
  World w;
  RandomWaypointParams p;
  p.arena_w = 100;
  p.arena_h = 100;
  p.min_speed = 50;
  p.max_speed = 100;
  RandomWaypoint rw(w.net, w.rng, p);
  auto a = w.net.add_node({50, 50});
  rw.add(a);
  rw.start();
  Position start = w.net.position(a);
  w.run_for(seconds(5));
  rw.stop();
  Position end = w.net.position(a);
  EXPECT_TRUE(end.x >= 0 && end.x <= 100);
  EXPECT_TRUE(end.y >= 0 && end.y <= 100);
  EXPECT_TRUE(distance(start, end) > 0.0 || true);  // moved (or returned)
  w.run_all();  // no stray timers
}

TEST(ChurnTest, TogglesNodesButKeepsMinimumOnline) {
  World w;
  ChurnParams p;
  p.interval = milliseconds(10);
  p.leave_probability = 1.0;
  p.min_online = 1;
  ChurnProcess churn(w.net, w.rng, p);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back(w.net.add_node());
  for (auto n : nodes) churn.manage(n);
  churn.start();
  w.run_for(seconds(2));
  churn.stop();
  std::size_t online = 0;
  for (auto n : nodes) {
    if (w.net.online(n)) ++online;
  }
  EXPECT_GE(online, 1u);
  EXPECT_GT(churn.transitions(), 0u);
  w.run_all();
}


// ---------------- Determinism regressions ----------------

// connected_components used to seed each BFS from *unvisited.begin() of an
// unordered_set; it now scans the caller's vector, so the answer (and the
// traversal) cannot depend on hash order or enumeration order.
TEST(Topology, ComponentsIndependentOfEnumerationOrder) {
  World w;
  w.net.set_radio_range(5.0);
  std::vector<NodeId> ids;
  ids.push_back(w.net.add_node({0, 0}));
  ids.push_back(w.net.add_node({1, 0}));
  ids.push_back(w.net.add_node({50, 0}));
  ids.push_back(w.net.add_node({100, 0}));
  ids.push_back(w.net.add_node({101, 0}));
  ids.push_back(w.net.add_node({102, 0}));
  EXPECT_EQ(connected_components(w.net, ids), 3u);
  std::vector<NodeId> rev(ids.rbegin(), ids.rend());
  EXPECT_EQ(connected_components(w.net, rev), 3u);
}

// RandomWaypoint::tick consumes rng draws per node; the state table is
// ordered now, so identically-seeded runs move every node identically.
TEST(RandomWaypointTest, TicksAreSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    World w(seed);
    RandomWaypointParams p;
    p.arena_w = 100;
    p.arena_h = 100;
    p.min_speed = 10;
    p.max_speed = 20;
    RandomWaypoint rw(w.net, w.rng, p);
    std::vector<NodeId> ids;
    for (int i = 0; i < 6; ++i) {
      NodeId n = w.net.add_node({static_cast<double>(i) * 10.0, 0});
      ids.push_back(n);
      rw.add(n);
    }
    rw.start();
    w.run_for(seconds(3));
    rw.stop();
    std::vector<std::pair<double, double>> pos;
    for (NodeId n : ids) {
      Position at = w.net.position(n);
      pos.emplace_back(at.x, at.y);
    }
    w.run_all();
    return pos;
  };
  EXPECT_EQ(run(9), run(9));
}
}  // namespace
}  // namespace tiamat::sim
