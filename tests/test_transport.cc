// Transport conformance suite (ROADMAP item 1).
//
// Every test in TransportConformance runs twice — once over the
// deterministic simulator backend, once over the multi-threaded loopback
// backend — pinning down the contract protocol code relies on: per-sender
// delivery order, group membership, timer firing/cancellation, and
// delivery-after-close safety. The loopback-only suite then exercises the
// concurrent backend's specifics (real delay, loss, worker parallelism) and
// runs a keyed-probe differential: the same Tiamat workload executed over
// both backends must produce identical results.
//
// Tests are composition roots: they may name sim:: and transport backends
// directly. Protocol code may not (lint-enforced).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/instance.h"
#include "obs/metrics.h"
#include "obs/sched.h"
#include "obs/series.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "tests/test_util.h"
#include "transport/loopback_transport.h"
#include "transport/sim_transport.h"
#include "transport/transport.h"

namespace tiamat {
namespace {

using transport::Duration;
using transport::GroupId;
using transport::kMillisecond;
using transport::NodeId;
using transport::Payload;
using transport::Time;
using transport::Transport;

Payload bytes(std::initializer_list<std::uint8_t> v) { return Payload(v); }

// ---------------------------------------------------------------------------
// Backend harness: owns one transport of either flavour.

enum class Backend { kSim, kLoopback };

const char* to_string(Backend b) {
  return b == Backend::kSim ? "sim" : "loopback";
}

class BackendHarness {
 public:
  explicit BackendHarness(Backend kind, Duration delivery_delay = 0)
      : kind_(kind) {
    if (kind == Backend::kSim) {
      sim::LinkModel model = testing::World::quiet_links();
      if (delivery_delay > 0) model.base_latency = delivery_delay;
      world_ = std::make_unique<testing::World>(/*seed=*/7, model);
    } else {
      transport::LoopbackOptions opts;
      opts.workers = 4;
      opts.delivery_delay =
          delivery_delay > 0 ? delivery_delay : 1 * kMillisecond;
      loop_ = std::make_unique<transport::LoopbackTransport>(opts);
    }
  }

  Transport& tx() {
    return kind_ == Backend::kSim ? static_cast<Transport&>(world_->tx)
                                  : static_cast<Transport&>(*loop_);
  }

  Backend kind() const { return kind_; }

 private:
  Backend kind_;
  std::unique_ptr<testing::World> world_;
  std::unique_ptr<transport::LoopbackTransport> loop_;
};

class TransportConformance : public ::testing::TestWithParam<Backend> {
 protected:
  BackendHarness harness_{GetParam()};
  Transport& tx() { return harness_.tx(); }
};

// ---------------------------------------------------------------------------
// Membership

TEST_P(TransportConformance, AddRemoveNodeLifecycle) {
  auto& t = tx();
  const NodeId a = t.add_node();
  EXPECT_NE(a, transport::kNoNode);
  EXPECT_TRUE(t.node_exists(a));
  EXPECT_TRUE(t.online(a));
  t.remove_node(a);
  EXPECT_FALSE(t.node_exists(a));
}

TEST_P(TransportConformance, VisibleFromExcludesSelfAndOffline) {
  auto& t = tx();
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  const NodeId c = t.add_node();
  t.set_online(c, false);
  const std::vector<NodeId> from_a = t.visible_from(a);
  EXPECT_EQ(from_a, std::vector<NodeId>{b});
  EXPECT_TRUE(t.visible(a, b));
  EXPECT_FALSE(t.visible(a, c));
}

// ---------------------------------------------------------------------------
// Traffic

TEST_P(TransportConformance, SendDeliversPayloadWithSender) {
  auto& t = tx();
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  auto got = std::make_shared<std::optional<std::pair<NodeId, Payload>>>();
  t.bind(b, [got](NodeId from, const Payload& p) { *got = {from, p}; });
  t.send(a, b, bytes({1, 2, 3}));
  ASSERT_TRUE(t.wait_until([&] { return got->has_value(); }));
  EXPECT_EQ((*got)->first, a);
  EXPECT_EQ((*got)->second, bytes({1, 2, 3}));
}

TEST_P(TransportConformance, PerSenderOrderIsPreserved) {
  auto& t = tx();
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  constexpr int kN = 200;
  auto seen = std::make_shared<std::vector<std::uint8_t>>();
  t.bind(b, [seen](NodeId, const Payload& p) { seen->push_back(p.at(0)); });
  for (int i = 0; i < kN; ++i) {
    t.send(a, b, Payload{static_cast<std::uint8_t>(i)});
  }
  ASSERT_TRUE(t.wait_until([&] { return seen->size() == kN; }));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ((*seen)[i], static_cast<std::uint8_t>(i)) << "at " << i;
  }
}

TEST_P(TransportConformance, MulticastHonoursJoinAndLeave) {
  auto& t = tx();
  constexpr GroupId kGroup = 40;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  const NodeId c = t.add_node();
  auto b_got = std::make_shared<int>(0);
  auto c_got = std::make_shared<int>(0);
  t.bind(b, [b_got](NodeId, const Payload&) { ++*b_got; });
  t.bind(c, [c_got](NodeId, const Payload&) { ++*c_got; });
  t.join_group(b, kGroup);
  t.join_group(c, kGroup);
  t.multicast(a, kGroup, bytes({1}));
  ASSERT_TRUE(t.wait_until([&] { return *b_got == 1 && *c_got == 1; }));
  t.leave_group(c, kGroup);
  t.multicast(a, kGroup, bytes({2}));
  ASSERT_TRUE(t.wait_until([&] { return *b_got == 2; }));
  EXPECT_EQ(*c_got, 1);  // c left before the second round
}

TEST_P(TransportConformance, MulticastSkipsTheSender) {
  auto& t = tx();
  constexpr GroupId kGroup = 41;
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  auto a_got = std::make_shared<int>(0);
  auto b_got = std::make_shared<int>(0);
  t.bind(a, [a_got](NodeId, const Payload&) { ++*a_got; });
  t.bind(b, [b_got](NodeId, const Payload&) { ++*b_got; });
  t.join_group(a, kGroup);
  t.join_group(b, kGroup);
  t.multicast(a, kGroup, bytes({9}));
  ASSERT_TRUE(t.wait_until([&] { return *b_got == 1; }));
  EXPECT_EQ(*a_got, 0);
}

TEST_P(TransportConformance, OfflineNodeReceivesNothing) {
  auto& t = tx();
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  auto got = std::make_shared<int>(0);
  t.bind(b, [got](NodeId, const Payload&) { ++*got; });
  t.set_online(b, false);
  t.send(a, b, bytes({1}));  // dropped: b's radio is off
  t.set_online(b, true);
  t.send(a, b, bytes({2}));
  ASSERT_TRUE(t.wait_until([&] { return *got >= 1; }));
  EXPECT_EQ(*got, 1);
}

// ---------------------------------------------------------------------------
// Timers

TEST_P(TransportConformance, TimerFiresOnceAtOrAfterDeadline) {
  auto& t = tx();
  const NodeId a = t.add_node();
  auto& timers = t.timers(a);
  const Time scheduled = t.now() + 5 * kMillisecond;
  auto fired_at = std::make_shared<Time>(-1);
  timers.schedule_at(scheduled, [&t, fired_at] { *fired_at = t.now(); });
  ASSERT_TRUE(t.wait_until([&] { return *fired_at >= 0; }));
  EXPECT_GE(*fired_at, scheduled);
}

TEST_P(TransportConformance, CancelledTimerNeverFires) {
  auto& t = tx();
  const NodeId a = t.add_node();
  auto& timers = t.timers(a);
  auto early = std::make_shared<bool>(false);
  auto late = std::make_shared<bool>(false);
  const auto id =
      timers.schedule_after(5 * kMillisecond, [early] { *early = true; });
  timers.schedule_after(20 * kMillisecond, [late] { *late = true; });
  EXPECT_TRUE(timers.cancel(id));
  EXPECT_FALSE(timers.cancel(id));  // second cancel is stale
  ASSERT_TRUE(t.wait_until([&] { return *late; }));
  EXPECT_FALSE(*early);
}

TEST_P(TransportConformance, CancelDestroysClosureAtOnce) {
  auto& t = tx();
  const NodeId a = t.add_node();
  auto& timers = t.timers(a);
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  const auto id = timers.schedule_after(3600 * transport::kSecond,
                                        [token] { ++*token; });
  token.reset();
  ASSERT_FALSE(watch.expired());  // only the pending closure holds it
  EXPECT_TRUE(timers.cancel(id));
  EXPECT_TRUE(watch.expired());
}

TEST_P(TransportConformance, StaleTimerIdNeverCancelsAReusedSlot) {
  auto& t = tx();
  const NodeId a = t.add_node();
  auto& timers = t.timers(a);
  const auto stale = timers.schedule_after(3600 * transport::kSecond, [] {});
  ASSERT_TRUE(timers.cancel(stale));
  auto fired = std::make_shared<bool>(false);
  const auto fresh =
      timers.schedule_after(5 * kMillisecond, [fired] { *fired = true; });
  EXPECT_NE(fresh, stale);
  EXPECT_FALSE(timers.cancel(stale));  // must not take `fresh` with it
  ASSERT_TRUE(t.wait_until([&] { return *fired; }));
  EXPECT_FALSE(timers.cancel(fresh));  // fired: its id is stale too
}

TEST_P(TransportConformance, TimerServiceSurvivesRemoveNode) {
  auto& t = tx();
  const NodeId a = t.add_node();
  auto& timers = t.timers(a);
  auto fired = std::make_shared<bool>(false);
  const auto id =
      timers.schedule_after(5 * kMillisecond, [fired] { *fired = true; });
  t.remove_node(a);
  // The handle outlives the node: cancelling a quiesced timer is safe, and
  // the timer must not fire.
  timers.cancel(id);
  const NodeId b = t.add_node();
  auto sentinel = std::make_shared<bool>(false);
  t.timers(b).schedule_after(20 * kMillisecond, [sentinel] { *sentinel = true; });
  ASSERT_TRUE(t.wait_until([&] { return *sentinel; }));
  EXPECT_FALSE(*fired);
}

// ---------------------------------------------------------------------------
// Teardown safety

TEST_P(TransportConformance, DeliveryAfterCloseIsDropped) {
  auto& t = tx();
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  auto got = std::make_shared<int>(0);
  t.bind(b, [got](NodeId, const Payload&) { ++*got; });
  // A burst in flight when the destination disappears must be dropped
  // without touching the unbound handler (tsan cross-checks this suite).
  for (int i = 0; i < 64; ++i) t.send(a, b, bytes({7}));
  t.remove_node(b);
  t.send(a, b, bytes({8}));  // post-removal send: silently dropped
  const NodeId c = t.add_node();
  auto sentinel = std::make_shared<bool>(false);
  t.bind(c, [sentinel](NodeId, const Payload&) { *sentinel = true; });
  t.send(a, c, bytes({9}));
  ASSERT_TRUE(t.wait_until([&] { return *sentinel; }));
}

TEST_P(TransportConformance, RebindSwapsHandlerSafely) {
  auto& t = tx();
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  auto first = std::make_shared<int>(0);
  auto second = std::make_shared<int>(0);
  t.bind(b, [first](NodeId, const Payload&) { ++*first; });
  for (int i = 0; i < 32; ++i) t.send(a, b, bytes({1}));
  // Rebinding synchronizes with in-flight invocations of the old handler.
  t.bind(b, [second](NodeId, const Payload&) { ++*second; });
  for (int i = 0; i < 32; ++i) t.send(a, b, bytes({2}));
  ASSERT_TRUE(t.wait_until([&] { return *first + *second == 64; }));
  EXPECT_EQ(*first + *second, 64);
}

TEST_P(TransportConformance, WaitUntilReportsTimeout) {
  auto& t = tx();
  (void)t.add_node();
  EXPECT_FALSE(
      t.wait_until([] { return false; }, /*max_wait=*/10 * kMillisecond));
  EXPECT_TRUE(t.wait_until([] { return true; }, 10 * kMillisecond));
}

TEST_P(TransportConformance, ForkRngYieldsDistinctStreams) {
  auto& t = tx();
  transport::Rng r1 = t.fork_rng();
  transport::Rng r2 = t.fork_rng();
  bool diverged = false;
  for (int i = 0; i < 16 && !diverged; ++i) {
    diverged = r1.uniform(0, 1 << 30) != r2.uniform(0, 1 << 30);
  }
  EXPECT_TRUE(diverged);
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformance,
                         ::testing::Values(Backend::kSim, Backend::kLoopback),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Loopback-specific behaviour

TEST(LoopbackTransport, DeliveryDelayIsRespected) {
  transport::LoopbackOptions opts;
  opts.delivery_delay = 20 * kMillisecond;
  transport::LoopbackTransport t(opts);
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  auto arrived_at = std::make_shared<Time>(-1);
  t.bind(b, [&t, arrived_at](NodeId, const Payload&) { *arrived_at = t.now(); });
  const Time sent_at = t.now();
  t.send(a, b, bytes({1}));
  ASSERT_TRUE(t.wait_until([&] { return *arrived_at >= 0; }));
  EXPECT_GE(*arrived_at - sent_at, 20 * kMillisecond);
}

TEST(LoopbackTransport, TotalLossDropsEverything) {
  transport::LoopbackOptions opts;
  opts.loss = 1.0;
  transport::LoopbackTransport t(opts);
  const NodeId a = t.add_node();
  const NodeId b = t.add_node();
  auto got = std::make_shared<int>(0);
  t.bind(b, [got](NodeId, const Payload&) { ++*got; });
  for (int i = 0; i < 32; ++i) t.send(a, b, bytes({1}));
  EXPECT_FALSE(t.wait_until([&] { return *got > 0; }, 20 * kMillisecond));
  const auto s = t.stats();
  EXPECT_EQ(s.deliveries, 0u);
  EXPECT_EQ(s.drops_loss, 32u);
}

TEST(LoopbackTransport, CancelledTimersLeaveTheInbox) {
  transport::LoopbackOptions opts;
  opts.workers = 2;
  transport::LoopbackTransport t(opts);
  const NodeId a = t.add_node();
  auto depth = [&t] {
    std::uint64_t d = 0;
    for (const auto& w : t.sched_stats().workers) d += w.queue_depth;
    return d;
  };
  const std::uint64_t before = depth();
  std::vector<transport::TimerId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(
        t.timers(a).schedule_after(3600 * transport::kSecond, [] {}));
  }
  EXPECT_EQ(depth(), before + 10000);
  std::size_t cancelled = 0;
  for (const auto id : ids) cancelled += t.timers(a).cancel(id) ? 1 : 0;
  EXPECT_EQ(cancelled, 10000u);
  EXPECT_EQ(depth(), before);
}

TEST(LoopbackTransport, ManySendersAllDeliveredAcrossWorkers) {
  transport::LoopbackOptions opts;
  opts.workers = 4;
  transport::LoopbackTransport t(opts);
  constexpr int kSenders = 16;
  constexpr int kEach = 50;
  const NodeId sink = t.add_node();
  auto got = std::make_shared<std::atomic<int>>(0);
  t.bind(sink, [got](NodeId, const Payload&) { ++*got; });
  std::vector<NodeId> senders;
  for (int i = 0; i < kSenders; ++i) senders.push_back(t.add_node());
  // Fan the sends out via each sender's own strand so enqueueing itself is
  // concurrent across workers.
  for (NodeId s : senders) {
    t.post(s, [&t, s, sink] {
      for (int i = 0; i < kEach; ++i) t.send(s, sink, Payload{1});
    });
  }
  ASSERT_TRUE(t.wait_until([&] { return *got == kSenders * kEach; },
                           10 * transport::kSecond));
  EXPECT_EQ(t.stats().deliveries,
            static_cast<std::uint64_t>(kSenders * kEach));
}

// ---------------------------------------------------------------------------
// Keyed-probe differential: the same Tiamat workload over both backends
// must produce the same answers. Three instances each publish tuples under
// distinct keys; a fourth probes every key through the logical space
// (rdp = keyed probe) and takes one of them (inp). The key -> value map a
// backend produces is its behavioural fingerprint.

std::map<std::string, std::int64_t> run_keyed_probe_workload(
    Transport& t, Duration settle) {
  core::Config cfg;
  cfg.lease_caps.default_ttl = transport::seconds(5);
  cfg.lease_caps.max_ttl = transport::seconds(5);
  auto named = [&](const char* n) {
    core::Config c = cfg;
    c.name = n;
    return c;
  };
  core::Instance alpha(t, named("alpha"));
  core::Instance beta(t, named("beta"));
  core::Instance gamma(t, named("gamma"));
  core::Instance prober(t, named("prober"));

  const std::map<std::string, std::int64_t> published{
      {"k0", 10}, {"k1", 11}, {"k2", 12}, {"k3", 13}, {"k4", 14}, {"k5", 15}};
  // Spread the keys across the three publishers; drive each out() on its
  // owner's strand (required on the concurrent backend).
  core::Instance* owners[] = {&alpha, &beta, &gamma};
  auto outs_done = std::make_shared<std::atomic<int>>(0);
  int idx = 0;
  for (const auto& [key, value] : published) {
    core::Instance* owner = owners[idx++ % 3];
    const std::string k = key;
    const std::int64_t v = value;
    t.post(owner->node(), [owner, k, v, outs_done] {
      owner->out(tuples::Tuple{"kv", k, v});
      ++*outs_done;
    });
  }
  if (!t.wait_until([&] { return *outs_done == 6; }, settle)) return {};

  // Probe every key (plus one that was never published) from the fourth
  // instance; collect what the logical space answers.
  auto results =
      std::make_shared<std::map<std::string, std::optional<std::int64_t>>>();
  auto pending = std::make_shared<std::atomic<int>>(0);
  std::vector<std::string> keys{"k0", "k1", "k2", "k3", "k4", "k5", "ghost"};
  for (const std::string& key : keys) {
    ++*pending;
    t.post(prober.node(), [&prober, key, results, pending] {
      const bool granted = prober.rdp(
          tuples::Pattern{"kv", key, tuples::any_int()},
          [key, results, pending](std::optional<core::ReadResult> r) {
            (*results)[key] =
                r ? std::optional<std::int64_t>(r->tuple[2].as_int())
                  : std::nullopt;
            --*pending;
          });
      if (!granted) {
        (*results)[key] = std::nullopt;
        --*pending;
      }
    });
  }
  if (!t.wait_until([&] { return *pending == 0; }, settle)) return {};

  // Phase 2, sequenced after every probe resolved: one destructive keyed
  // take — exactly one backend-independent removal.
  ++*pending;
  t.post(prober.node(), [&prober, results, pending] {
    prober.inp(tuples::Pattern{"kv", std::string("k0"), tuples::any_int()},
               [results, pending](std::optional<core::ReadResult> r) {
                 (*results)["k0.taken"] =
                     r ? std::optional<std::int64_t>(r->tuple[2].as_int())
                       : std::nullopt;
                 --*pending;
               });
  });
  if (!t.wait_until([&] { return *pending == 0; }, settle)) return {};

  std::map<std::string, std::int64_t> fingerprint;
  for (const auto& [key, value] : *results) {
    fingerprint[key] = value.value_or(-1);
  }
  return fingerprint;
}

TEST(TransportDifferential, KeyedProbesAgreeAcrossBackends) {
  BackendHarness sim_h(Backend::kSim);
  BackendHarness loop_h(Backend::kLoopback);
  const auto sim_fp =
      run_keyed_probe_workload(sim_h.tx(), 30 * transport::kSecond);
  const auto loop_fp =
      run_keyed_probe_workload(loop_h.tx(), 30 * transport::kSecond);
  ASSERT_FALSE(sim_fp.empty()) << "sim workload did not complete";
  ASSERT_FALSE(loop_fp.empty()) << "loopback workload did not complete";
  EXPECT_EQ(sim_fp, loop_fp);
  // And the answers are the published values.
  EXPECT_EQ(sim_fp.at("k1"), 11);
  EXPECT_EQ(sim_fp.at("ghost"), -1);
  EXPECT_EQ(sim_fp.at("k0.taken"), 10);
}

// ---------------------------------------------------------------------------
// Teardown off the strand. ~Instance walks strand-confined state (open ops,
// served requests, pending confirms) to cancel their timers, so it must
// quiesce its node before the walk: on the loopback a delivery or timer of
// that node may be running on a worker meanwhile. Under the tsan preset a
// walk that comes first is reported as a data race.

TEST(TransportTeardown, InstanceDestroyedOffStrandQuiescesFirst) {
  transport::LoopbackOptions opts;
  opts.workers = 2;
  transport::LoopbackTransport t(opts);
  core::Config cfg;
  cfg.name = "owner";
  auto owner = std::make_unique<core::Instance>(t, cfg);
  core::Instance* inst = owner.get();

  // Relaxed on purpose: the only happens-before edge from the closure to
  // the destructor must be the one ~Instance makes itself, or TSan could
  // not see a walk that skips it.
  std::atomic<bool> opened{false};
  std::atomic<bool> finished{false};
  t.post(inst->node(), [inst, &opened, &finished] {
    inst->in(tuples::Pattern{"never"}, [](std::optional<core::ReadResult>) {});
    opened.store(true, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    finished.store(true, std::memory_order_relaxed);
  });
  while (!opened.load(std::memory_order_relaxed)) std::this_thread::yield();
  owner.reset();  // the strand is still busy inside the closure
  EXPECT_TRUE(finished.load(std::memory_order_relaxed))
      << "~Instance returned while its node's strand was still running";
}

// ---------------------------------------------------------------------------
// Concurrent observability regressions (DESIGN.md §13). These run under the
// tsan preset (`ctest -R Transport`): the whole observability plane —
// thread-ring tracing, striped metrics, a cross-strand TimeSeriesRecorder
// and the scheduler-telemetry exporter — live at once over the loopback
// worker pool. A data race anywhere in that plane fails this suite.

TEST(TransportObs, FourInstancesTraceMetricsSchedUnderLoopback) {
  transport::LoopbackOptions opts;
  opts.workers = 4;
  transport::LoopbackTransport t(opts);

  core::Config cfg;
  cfg.lease_caps.default_ttl = transport::seconds(5);
  cfg.lease_caps.max_ttl = transport::seconds(5);
  auto sink = std::make_shared<obs::MemorySink>();
  std::vector<std::unique_ptr<core::Instance>> insts;
  for (int i = 0; i < 4; ++i) {
    core::Config c = cfg;
    c.name = "obs-" + std::to_string(i);
    insts.push_back(std::make_unique<core::Instance>(t, c));
    // Tracing is configured before any traffic, so every event the test
    // generates flows through the per-thread rings (never the direct path).
    insts.back()->tracer().set_enabled(true);
    insts.back()->tracer().set_sink(sink);
    insts.back()->tracer().set_thread_rings(true);
  }

  // Scheduler telemetry samples on a strand of its own: SchedExporter only
  // reads the transport's relaxed-atomic cells, so any strand may host it.
  const NodeId rec_node = t.add_node();
  obs::SeriesOptions sopts;
  sopts.interval = transport::kMillisecond;
  auto sched_rec =
      std::make_unique<obs::TimeSeriesRecorder>(t.timers(rec_node), sopts);
  obs::Registry sched_reg;
  obs::SchedExporter exporter(sched_reg, t);
  sched_rec->add_source("sched", &sched_reg, [&exporter] { exporter.update(); });

  // Instance telemetry is strand-bound (register_telemetry's contract: the
  // probe lambdas and the memory-gauge refresh read strand-confined state),
  // so each instance gets a recorder ticking on its own strand. The sampled
  // striped registries still race with every other strand's writers — which
  // is the interleaving this PR makes safe.
  std::vector<std::unique_ptr<obs::TimeSeriesRecorder>> recs;
  for (auto& inst : insts) {
    recs.push_back(std::make_unique<obs::TimeSeriesRecorder>(
        t.timers(inst->node()), sopts));
    inst->register_telemetry(*recs.back());
  }

  // Recorders are strand-confined too (an off-strand start() races with
  // its own first tick re-arming the timer), so each starts on its strand.
  auto started = std::make_shared<std::atomic<int>>(0);
  obs::TimeSeriesRecorder* sched_raw0 = sched_rec.get();
  t.post(rec_node, [sched_raw0, started] {
    sched_raw0->start();
    ++*started;
  });
  for (int i = 0; i < 4; ++i) {
    obs::TimeSeriesRecorder* r = recs[static_cast<std::size_t>(i)].get();
    t.post(insts[static_cast<std::size_t>(i)]->node(), [r, started] {
      r->start();
      ++*started;
    });
  }
  ASSERT_TRUE(
      t.wait_until([&] { return *started == 5; }, 30 * transport::kSecond));

  // Phase 1: each instance publishes on its own strand.
  constexpr int kOpsPerInstance = 128;
  auto published = std::make_shared<std::atomic<int>>(0);
  for (int i = 0; i < 4; ++i) {
    core::Instance* owner = insts[i].get();
    const std::string key = "obs-key-" + std::to_string(i);
    t.post(owner->node(), [owner, key, published] {
      for (int k = 0; k < kOpsPerInstance; ++k) {
        owner->out(tuples::Tuple{"obs", key, std::int64_t{k}});
      }
      ++*published;
    });
  }
  ASSERT_TRUE(
      t.wait_until([&] { return *published == 4; }, 30 * transport::kSecond));

  // Phase 2: each instance destructively takes its neighbour's tuples, so
  // every op crosses strands (and worker threads) through the transport.
  auto resolved = std::make_shared<std::atomic<int>>(0);
  for (int i = 0; i < 4; ++i) {
    core::Instance* reader = insts[(i + 1) % 4].get();
    const std::string key = "obs-key-" + std::to_string(i);
    t.post(reader->node(), [reader, key, resolved] {
      for (int k = 0; k < kOpsPerInstance; ++k) {
        const bool granted =
            reader->inp(tuples::Pattern{"obs", key, tuples::any_int()},
                        [resolved](std::optional<core::ReadResult>) {
                          ++*resolved;
                        });
        if (!granted) ++*resolved;
      }
    });
  }
  ASSERT_TRUE(t.wait_until(
      [&] { return *resolved == 4 * kOpsPerInstance; }, 30 * transport::kSecond));

  // Stop every recorder on its own strand (the tick self-rearms there),
  // then drain every tracer from this thread.
  auto stopped = std::make_shared<std::atomic<int>>(0);
  obs::TimeSeriesRecorder* sched_raw = sched_rec.get();
  t.post(rec_node, [sched_raw, stopped] {
    sched_raw->stop();
    ++*stopped;
  });
  for (int i = 0; i < 4; ++i) {
    obs::TimeSeriesRecorder* r = recs[static_cast<std::size_t>(i)].get();
    t.post(insts[static_cast<std::size_t>(i)]->node(), [r, stopped] {
      r->stop();
      ++*stopped;
    });
  }
  ASSERT_TRUE(
      t.wait_until([&] { return *stopped == 5; }, 30 * transport::kSecond));

  // Quiesce the producers: every push happens on the instance's own strand
  // (probe breach traces included — that strand's recorder ticks there), so
  // disabling each tracer on its strand serializes with its future pushes.
  auto quiesced = std::make_shared<std::atomic<int>>(0);
  for (auto& inst : insts) {
    core::Instance* ip = inst.get();
    t.post(ip->node(), [ip, quiesced] {
      ip->tracer().set_enabled(false);
      ++*quiesced;
    });
  }
  ASSERT_TRUE(
      t.wait_until([&] { return *quiesced == 4; }, 30 * transport::kSecond));

  // Conservation oracle: once producers are quiet, a final drain moves every
  // accepted event to the sink exactly once (drops were rejected at push
  // time and sit on their own ledger) — nothing lost, nothing duplicated.
  std::uint64_t total_drained = 0;
  for (auto& inst : insts) {
    obs::Tracer& tr = inst->tracer();
    tr.drain();
    EXPECT_EQ(tr.ring_drained(), tr.ring_pushed())
        << "tracer ring conservation violated";
    total_drained += tr.ring_drained();
  }
  EXPECT_EQ(sink->events().size(), total_drained);
  EXPECT_GT(total_drained, 0u);

  // The scheduler saw the work: sched_stats() folds per-worker cells that
  // the worker threads were writing while we read them above.
  const auto sched = t.sched_stats();
  std::uint64_t tasks = 0;
  for (const auto& w : sched.workers) tasks += w.tasks;
  EXPECT_GT(tasks, 0u);
  exporter.update();
  EXPECT_GT(sched_reg.counter("transport.sched.tasks",
                              {{"worker", "0"}}).value() +
                sched_reg.counter("transport.sched.tasks",
                                  {{"worker", "1"}}).value() +
                sched_reg.counter("transport.sched.tasks",
                                  {{"worker", "2"}}).value() +
                sched_reg.counter("transport.sched.tasks",
                                  {{"worker", "3"}}).value(),
            0u);
}

// Striped-metrics hammer: writers bump a counter and observe a sketch while
// this thread snapshots. Counters must read monotonically, sketches must
// never look torn (observe() lands the bucket cell before the count, so any
// count we read is a lower bound on the bucket sum), and after join the
// totals are exact.
TEST(TransportObs, RegistrySnapshotVsWriterHammer) {
  obs::Registry reg;
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 20000;
  obs::Counter& hits = reg.counter("hammer.hits");
  obs::QuantileSketch& lat = reg.sketch("hammer.latency_us");

  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&hits, &lat, &go, w] {
      while (!go.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kOpsPerWriter; ++i) {
        hits.add(1);
        lat.observe(static_cast<double>((w * 131 + i) % 1000 + 1));
      }
    });
  }
  go.store(true, std::memory_order_release);

  std::uint64_t prev_hits = 0;
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t count_before = lat.count();
    std::uint64_t in_buckets = 0;
    for (const auto& [bucket, n] : lat.buckets()) in_buckets += n;
    EXPECT_GE(in_buckets, count_before) << "torn sketch read";
    const std::uint64_t h = hits.value();
    EXPECT_GE(h, prev_hits) << "counter went backwards";
    prev_hits = h;
    // Structural read under write load; tsan is the assertion here.
    const auto snap = reg.snapshot();
    (void)snap;
  }
  for (auto& th : writers) th.join();

  EXPECT_EQ(hits.value(),
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(lat.count(),
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
  std::uint64_t total = 0;
  for (const auto& [bucket, n] : lat.buckets()) total += n;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
}

}  // namespace
}  // namespace tiamat
