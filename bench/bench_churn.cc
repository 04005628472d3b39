// E8 — §2.3: "Tiamat instances can enter or leave the scope of visibility
// without affecting the semantics of any ongoing operations (although their
// departure may affect the result). ... An opportunistic model allows
// Tiamat to adapt to changes in the mobile environment."
//
// Random-waypoint mobility drives visibility churn. Series, vs mean node
// speed: operation success rate and latency. Ablation: the §3.1 model flag
// (propagate_to_late_arrivals on/off) shows how much the model behaviour
// buys over the paper's prototype. No operation ever errors — it either
// completes or returns nothing at lease expiry.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "obs/quantile.h"
#include "sim/mobility.h"

namespace {

using namespace tiamat;  // NOLINT
using bench::World;
using tuples::any_int;
using tuples::Pattern;
using tuples::Tuple;

struct Result {
  double success_rate = 0;
  double mean_latency_ms = 0;
  double lease_expiries = 0;
};

Result run(std::size_t nodes_n, double speed, bool late_arrivals,
           std::uint64_t seed, const std::string& scenario) {
  World w(seed);
  w.net.set_radio_range(120.0);  // arena 300x300: partial visibility

  std::vector<std::unique_ptr<core::Instance>> nodes;
  for (std::size_t i = 0; i < nodes_n; ++i) {
    auto cfg = bench::bench_config("n" + std::to_string(i), sim::seconds(8));
    cfg.propagate_to_late_arrivals = late_arrivals;
    nodes.push_back(std::make_unique<core::Instance>(
        w.tx, cfg, nullptr,
        transport::NodeOptions{w.rng.real(0, 300), w.rng.real(0, 300)}));
  }

  sim::RandomWaypointParams mp;
  mp.arena_w = 300;
  mp.arena_h = 300;
  mp.min_speed = speed * 0.5;
  mp.max_speed = speed * 1.5;
  mp.pause = sim::milliseconds(200);
  sim::RandomWaypoint mob(w.net, w.rng, mp);
  for (auto& n : nodes) mob.add(n->node());
  if (speed > 0) mob.start();

  // Continuous telemetry (--series): sample every instance's registry and
  // health probes once per simulated second.
  auto rec = bench::maybe_series(w, obs::SeriesOptions{sim::seconds(1)});
  if (rec) {
    for (auto& n : nodes) n->register_telemetry(*rec);
    rec->start();
  }

  // Workload: each node produces tuples keyed by its own index and blocks
  // taking its ring-partner's — every take requires the partner (or its
  // tuple) to become reachable within the lease.
  obs::QuantileSketch latency;
  std::uint64_t ok = 0, fail = 0;
  for (std::size_t i = 0; i < nodes_n; ++i) {
    auto* inst = nodes[i].get();
    const auto mine = static_cast<std::int64_t>(i);
    const auto partner = static_cast<std::int64_t>((i + 1) % nodes_n);
    auto loop = std::make_shared<std::function<void()>>();
    *loop = [&, inst, mine, partner, loop] {
      inst->out(Tuple{"pkt", mine});
      const sim::Time t0 = w.net.now();
      inst->in(Pattern{"pkt", partner}, [&, t0, loop](auto r) {
        if (r) {
          ++ok;
          const auto us = static_cast<double>(w.net.now() - t0);
          latency.observe(us);
          bench::observe_latency(scenario, us);
        } else {
          ++fail;
        }
        w.queue.schedule_after(sim::milliseconds(100), *loop);
      });
    };
    w.queue.schedule_after(sim::milliseconds(10 * (i + 1)), *loop);
  }
  w.queue.run_for(sim::seconds(60));
  mob.stop();

  double expiries = 0;
  for (auto& n : nodes) {
    expiries += static_cast<double>(n->monitor().counters().lease_expired);
    bench::export_space_memory(*n, scenario);
    bench::export_leases(*n, scenario);
  }
  // The recorder samples the instances' registries: export (and drop) it
  // before the nodes themselves go away.
  bench::export_series(std::move(rec), scenario);
  nodes.clear();
  bench::export_net(w, scenario);

  Result r;
  r.success_rate = (ok + fail) ? static_cast<double>(ok) / (ok + fail) : 0;
  r.mean_latency_ms = bench::sim_ms(latency.mean());
  r.lease_expiries = expiries;
  return r;
}

void BM_Churn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double speed = static_cast<double>(state.range(1));
  const bool late = state.range(2) != 0;
  const std::string scenario = "n" + std::to_string(n) + "_s" +
                               std::to_string(state.range(1)) +
                               (late ? "_model" : "_prototype");
  Result r;
  std::uint64_t seed = 13;
  for (auto _ : state) {
    r = run(n, speed, late, seed++, scenario);
  }
  state.counters["success_rate"] = r.success_rate;
  state.counters["sim_latency_ms"] = r.mean_latency_ms;
  state.counters["lease_expiries"] = r.lease_expiries;
  state.SetLabel(std::string("speed=") + std::to_string(state.range(1)) +
                 (late ? " model" : " prototype"));
}

}  // namespace

// nodes x speed(units/s) x {model, prototype}
BENCHMARK(BM_Churn)
    ->Args({12, 0, 1})
    ->Args({12, 10, 1})
    ->Args({12, 10, 0})
    ->Args({12, 40, 1})
    ->Args({12, 40, 0})
    ->Args({12, 80, 1})
    ->Args({12, 80, 0})
    ->Args({24, 40, 1})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

TIAMAT_BENCH_MAIN("churn");
