// E7 — §2.5: "Due to the asynchronous, identity-separated nature of
// generative communications, it is not normally possible to identify tuples
// as being garbage. In Tiamat, the leasing model allows tighter controls to
// be placed on how long tuples may reside in the space."
//
// Scenario: producers join, deposit tuples, and depart without consuming
// them. Series over time: space occupancy (tuples & bytes) with leases
// (bounded, returns to baseline) vs without (grows without bound); plus the
// cost bound on abandoned blocking operations.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "lease/requester.h"

namespace {

using namespace tiamat;  // NOLINT
using bench::World;
using tuples::any_int;
using tuples::Pattern;
using tuples::Tuple;

struct Result {
  double peak_tuples = 0;
  double final_tuples = 0;
  double peak_bytes = 0;
  double final_bytes = 0;
  double blocked_ops_alive_at_end = 0;
};

Result run(bool leased, int producers, int tuples_each, std::uint64_t seed,
           const std::string& scenario) {
  World w(seed);
  // The long-lived "kiosk" node whose resources we watch.
  auto cfg = bench::bench_config("kiosk", sim::seconds(5));
  if (!leased) {
    // Model a lease-less system: effectively infinite grants.
    cfg.lease_caps.default_ttl = sim::seconds(100000);
    cfg.lease_caps.max_ttl = sim::seconds(100000);
  }
  core::Instance kiosk(w.tx, cfg);

  double peak_tuples = 0, peak_bytes = 0;

  // Producers appear one at a time, push tuples *at the kiosk* (directed
  // out, §2.4 — e.g. leaving notes at a public display), then vanish.
  for (int pi = 0; pi < producers; ++pi) {
    core::Instance producer(
        w.tx, bench::bench_config("p" + std::to_string(pi)));
    w.queue.run_for(sim::milliseconds(10));
    for (int k = 0; k < tuples_each; ++k) {
      lease::LeaseTerms t;
      t.ttl = leased ? sim::seconds(5) : sim::seconds(100000);
      producer.out_at(kiosk.handle(),
                      Tuple{"note", k, std::string(128, 'n')},
                      lease::FlexibleRequester{t},
                      core::UnavailablePolicy::kAbandon);
    }
    // Some abandoned blocking ops too: the producer asks and leaves. The
    // kiosk keeps a remote waiter armed only as long as the op's lease.
    lease::LeaseTerms t;
    t.ttl = leased ? sim::seconds(5) : sim::seconds(100000);
    producer.in(Pattern{"reply", any_int()}, [](auto) {},
                lease::FlexibleRequester{t});
    w.queue.run_for(sim::milliseconds(500));
    peak_tuples = std::max(peak_tuples,
                           static_cast<double>(kiosk.local_space().size()));
    peak_bytes = std::max(
        peak_bytes, static_cast<double>(kiosk.local_space().footprint()));
    // producer destructs here: departs the environment
  }

  // Let the world settle well past the lease horizon.
  w.queue.run_for(sim::seconds(30));

  Result r;
  r.peak_tuples = peak_tuples;
  r.final_tuples = static_cast<double>(kiosk.local_space().size());
  r.peak_bytes = peak_bytes;
  r.final_bytes = static_cast<double>(kiosk.local_space().footprint());
  r.blocked_ops_alive_at_end =
      static_cast<double>(kiosk.serving_count() + kiosk.open_ops());
  bench::export_space_memory(kiosk, scenario);
  bench::export_leases(kiosk, scenario);
  return r;
}

void BM_Leases(benchmark::State& state) {
  const bool leased = state.range(0) != 0;
  const int producers = static_cast<int>(state.range(1));
  const std::string scenario =
      (leased ? "leased_p" : "unleased_p") + std::to_string(producers);
  Result r;
  std::uint64_t seed = 11;
  for (auto _ : state) {
    r = run(leased, producers, 40, seed++, scenario);
  }
  state.counters["peak_tuples"] = r.peak_tuples;
  state.counters["final_tuples"] = r.final_tuples;
  state.counters["peak_bytes"] = r.peak_bytes;
  state.counters["final_bytes"] = r.final_bytes;
  state.counters["stuck_ops"] = r.blocked_ops_alive_at_end;
  state.SetLabel(leased ? "leased" : "unleased");
}

}  // namespace

BENCHMARK(BM_Leases)
    ->Args({1, 4})
    ->Args({0, 4})
    ->Args({1, 16})
    ->Args({0, 16})
    ->Args({1, 64})
    ->Args({0, 64})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

TIAMAT_BENCH_MAIN("leases");
