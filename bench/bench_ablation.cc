// Ablations of Tiamat's own design choices (DESIGN.md §6):
//
//  A1  Responder-list ordering: the paper's §3.1.3 list discipline vs the
//      §6 future-work stability ordering ("exploit the relatively fixed and
//      well connected portions of the network"), in a population where half
//      the peers are flaky. Metric: op latency and wasted contacts.
//  A2  Tentative-hold duration: too short re-exposes tuples before the
//      Confirm arrives (risking release/confirm races and extra traffic);
//      too long keeps tuples invisible after an originator dies.
//  A3  Probe window: discovery latency vs completeness.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "obs/quantile.h"

namespace {

using namespace tiamat;  // NOLINT
using bench::World;
using tuples::any_int;
using tuples::Pattern;
using tuples::Tuple;

// ---------------- A1: cache ordering under flaky peers ----------------

struct A1Result {
  double latency_ms = 0;
  double wasted_contacts = 0;  ///< OpRequests to peers that never answered
  double hit_rate = 0;
};

A1Result run_ordering(bool stability, std::uint64_t seed) {
  World w(seed);
  core::Config cfg = bench::bench_config("origin");
  cfg.cache_ordering = stability
                           ? net::ResponderCache::Ordering::kByStability
                           : net::ResponderCache::Ordering::kPaperList;
  core::Instance origin(w.tx, cfg);

  // 12 peers: the even ones are flaky (offline half the time on a cycle),
  // odd ones are rock solid. All hold matching data.
  std::vector<std::unique_ptr<core::Instance>> peers;
  for (int i = 0; i < 12; ++i) {
    peers.push_back(std::make_unique<core::Instance>(
        w.tx, bench::bench_config("p" + std::to_string(i))));
    for (int k = 0; k < 16; ++k) {
      peers.back()->out(Tuple{"data", k});
    }
  }
  // Flakiness driver.
  auto flap = std::make_shared<std::function<void()>>();
  bool down_phase = false;
  *flap = [&w, &peers, flap, &down_phase] {
    down_phase = !down_phase;
    for (std::size_t i = 0; i < peers.size(); i += 2) {
      w.net.set_online(peers[i]->node(), !down_phase);
    }
    w.queue.schedule_after(sim::milliseconds(400), *flap);
  };
  w.queue.schedule_after(sim::milliseconds(200), *flap);

  const int kOps = 400;
  obs::QuantileSketch latency;
  std::uint64_t hits = 0;
  int issued = 0;
  std::function<void()> next = [&] {
    if (issued++ >= kOps) return;
    const sim::Time t0 = w.net.now();
    origin.rdp(Pattern{"data", any_int()}, [&, t0](auto r) {
      latency.observe(static_cast<double>(w.net.now() - t0));
      if (r) ++hits;
      w.queue.schedule_after(sim::milliseconds(20), next);
    });
  };
  next();
  w.queue.run_for(sim::seconds(120));

  A1Result r;
  r.latency_ms = bench::sim_ms(latency.mean());
  r.hit_rate = static_cast<double>(hits) / kOps;
  // Wasted contacts: requests sent that never drew a first reply.
  double served = 0;
  for (auto& p : peers) {
    served += static_cast<double>(p->monitor().counters().remote_requests_served);
  }
  const double sent =
      static_cast<double>(origin.monitor().counters().probes_triggered);
  (void)sent;
  r.wasted_contacts =
      static_cast<double>(origin.endpoint().stats().sent) - served;
  return r;
}

void BM_CacheOrdering(benchmark::State& state) {
  const bool stability = state.range(0) != 0;
  A1Result r;
  std::uint64_t seed = 31;
  for (auto _ : state) {
    r = run_ordering(stability, seed++);
  }
  state.counters["sim_latency_ms"] = r.latency_ms;
  state.counters["hit_rate"] = r.hit_rate;
  state.counters["wasted_msgs"] = r.wasted_contacts;
  state.SetLabel(stability ? "stability-ordered (§6)" : "paper-list (§3.1.3)");
}

BENCHMARK(BM_CacheOrdering)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ---------------- A2: tentative hold sweep ----------------

struct A2Result {
  double duplicates = 0;
  double lost = 0;
  double latency_ms = 0;
};

A2Result run_hold(sim::Duration hold, std::uint64_t seed) {
  sim::LinkModel lm = World::model();
  lm.loss = 0.20;  // aggressive loss to stress the confirm/release window
  World w(seed);
  w.net.set_link_model(lm);

  core::Config cfg = bench::bench_config("n");
  cfg.tentative_hold = hold;
  std::vector<std::unique_ptr<core::Instance>> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<core::Instance>(w.tx, cfg));
  }
  const int kItems = 200;
  for (int k = 0; k < kItems; ++k) {
    nodes[static_cast<std::size_t>(k) % nodes.size()]->out(Tuple{"item", k});
  }

  std::multiset<std::int64_t> taken;
  obs::QuantileSketch latency;
  // Two competing consumers drain the bag; a consumer gives up only after
  // several consecutive misses (a single miss may just be packet loss).
  for (int c = 0; c < 2; ++c) {
    auto* inst = nodes[static_cast<std::size_t>(c)].get();
    auto loop = std::make_shared<std::function<void()>>();
    auto misses = std::make_shared<int>(0);
    *loop = [&, inst, loop, misses] {
      const sim::Time t0 = w.net.now();
      inst->inp(Pattern{"item", any_int()}, [&, t0, loop, misses](auto r) {
        if (r) {
          *misses = 0;
          taken.insert(r->tuple[1].as_int());
          latency.observe(static_cast<double>(w.net.now() - t0));
          w.queue.schedule_after(sim::milliseconds(5), *loop);
        } else if (++*misses < 6) {
          w.queue.schedule_after(sim::milliseconds(200), *loop);
        }
      });
    };
    w.queue.schedule_after(sim::milliseconds(1), *loop);
  }
  w.queue.run_for(sim::seconds(120));

  A2Result r;
  std::set<std::int64_t> unique_ids(taken.begin(), taken.end());
  r.duplicates = static_cast<double>(taken.size() - unique_ids.size());
  // Anything neither taken nor still visible is lost.
  std::size_t remaining = 0;
  for (auto& n : nodes) {
    remaining += n->local_space().count_matches(Pattern{"item", any_int()});
    remaining += n->local_space().tentative_count();
  }
  r.lost = static_cast<double>(kItems - unique_ids.size() - remaining);
  r.latency_ms = bench::sim_ms(latency.mean());
  return r;
}

void BM_TentativeHold(benchmark::State& state) {
  const sim::Duration hold = sim::milliseconds(state.range(0));
  A2Result r;
  std::uint64_t seed = 41;
  for (auto _ : state) {
    r = run_hold(hold, seed++);
  }
  state.counters["duplicates"] = r.duplicates;
  state.counters["lost"] = r.lost;
  state.counters["sim_latency_ms"] = r.latency_ms;
}

BENCHMARK(BM_TentativeHold)
    ->Arg(50)
    ->Arg(250)
    ->Arg(750)
    ->Arg(3000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ---------------- A3: probe window sweep ----------------

void BM_ProbeWindow(benchmark::State& state) {
  const sim::Duration window = sim::milliseconds(state.range(0));
  double found = 0, latency = 0;
  std::uint64_t seed = 51;
  for (auto _ : state) {
    World w(seed++);
    core::Config cfg = bench::bench_config("origin");
    cfg.probe_window = window;
    core::Instance origin(w.tx, cfg);
    std::vector<std::unique_ptr<core::Instance>> peers;
    for (int i = 0; i < 16; ++i) {
      peers.push_back(std::make_unique<core::Instance>(
          w.tx, bench::bench_config("p" + std::to_string(i))));
    }
    peers.back()->out(Tuple{"needle"});
    const sim::Time t0 = w.net.now();
    sim::Time t1 = t0;
    bool hit = false;
    origin.rdp(Pattern{"needle"}, [&](auto r) {
      t1 = w.net.now();
      hit = r.has_value();
    });
    w.queue.run_for(sim::seconds(10));
    found = static_cast<double>(origin.responders().size());
    latency = bench::sim_ms(static_cast<double>(t1 - t0));
    (void)hit;
  }
  state.counters["responders_found"] = found;
  state.counters["first_op_latency_ms"] = latency;
}

BENCHMARK(BM_ProbeWindow)
    ->Arg(5)
    ->Arg(25)
    ->Arg(100)
    ->Arg(400)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

TIAMAT_BENCH_MAIN("ablation");
