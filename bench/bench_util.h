// Shared helpers for the experiment benches (E3–E12). Each bench binary
// regenerates one paper-shaped series; since the paper's claims are about
// protocol behaviour, the interesting measurements are *simulated* metrics
// (virtual-time latency, message/byte counts) reported through
// google-benchmark counters, alongside the usual wall-clock timing of the
// simulation itself.

#pragma once

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_main.h"
#include "core/instance.h"
#include "obs/metrics.h"
#include "obs/series.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/random.h"
#include "transport/sim_transport.h"

namespace tiamat::bench {

struct World {
  explicit World(std::uint64_t seed = 42)
      : rng(seed), net(queue, rng, model()), tx(net) {}

  static sim::LinkModel model() {
    sim::LinkModel m;
    m.base_latency = 2 * sim::kMillisecond;
    m.per_kilobyte = 100;
    m.jitter = 200;
    m.loss = 0.0;
    return m;
  }

  sim::EventQueue queue;
  sim::Rng rng;
  sim::Network net;
  transport::SimTransport tx;
};

inline core::Config bench_config(const std::string& name,
                                 sim::Duration ttl = sim::seconds(30)) {
  core::Config cfg;
  cfg.name = name;
  cfg.lease_caps.default_ttl = ttl;
  cfg.lease_caps.max_ttl = ttl * 4;
  cfg.lease_caps.default_contacts = 64;
  cfg.lease_caps.max_contacts = 128;
  return cfg;
}

/// Milliseconds of virtual time, for counters.
inline double sim_ms(double microseconds) { return microseconds / 1000.0; }

/// Attaches the bench-wide `--trace` JSONL sink to an instance's tracer
/// (no-op when the flag was not given, keeping the traced and untraced
/// runs otherwise identical). Under the loopback backend the tracer is
/// switched to per-thread rings: the shared JSONL sink is only safe to
/// touch from one thread, so events buffer in SPSC rings until
/// `drain_trace()` merges them on the bench main thread.
inline void maybe_trace(core::Instance& i) {
  if (!trace_sink()) return;
  i.tracer().set_sink(trace_sink());
  if (transport_backend() == "loopback") i.tracer().set_thread_rings(true);
}

/// Final flush for a thread-ring tracer; call after the workload quiesces
/// and before the instance dies. No-op in direct mode or with tracing off.
inline void drain_trace(core::Instance& i) {
  if (trace_sink() && i.tracer().thread_rings()) i.tracer().drain();
}

/// Observe one virtual-time operation latency (µs) into the exportable
/// registry under `op.latency_us{scenario=...}` — a log-bucketed quantile
/// sketch, so p50/p90/p99 come out in BENCH_<name>.json without storing
/// samples.
inline void observe_latency(const std::string& scenario, double us) {
  registry().sketch("op.latency_us", {{"scenario", scenario}}).observe(us);
}

/// Continuous-telemetry recorder for one scenario run, or null when
/// `--series` was not given (the untouched path costs nothing). The bench
/// body registers instances (Instance::register_telemetry), starts it, and
/// hands it back through `export_series()` BEFORE tearing the instances
/// down — the recorder holds registry pointers into them.
inline std::unique_ptr<obs::TimeSeriesRecorder> maybe_series(
    World& w, obs::SeriesOptions opts = {}) {
  if (!series_enabled()) return nullptr;
  return std::make_unique<obs::TimeSeriesRecorder>(w.queue, opts);
}

/// Collects a finished recorder's document under `scenario` for the
/// `--series` output; no-op on null (flag off).
inline void export_series(std::unique_ptr<obs::TimeSeriesRecorder> rec,
                          const std::string& scenario) {
  if (!rec) return;
  rec->stop();
  obs::json::Object run;
  run.emplace_back("scenario", obs::json::Value(scenario));
  run.emplace_back("data", rec->to_json());
  series_runs().emplace_back(std::move(run));
}

/// Folds one instance's space memory accounting into the exportable
/// registry as scenario-labeled gauges (`.add`, so multi-node scenarios sum
/// across their instances).
inline void export_space_memory(core::Instance& i,
                                const std::string& scenario) {
  auto& r = registry();
  const obs::Labels l{{"scenario", scenario}};
  const space::LocalTupleSpace::MemoryStats m = i.local_space().memory();
  r.gauge("space.tuples", l).add(static_cast<double>(m.tuple_count));
  r.gauge("space.tuple_bytes", l).add(static_cast<double>(m.tuple_bytes));
  r.gauge("space.waiters", l).add(static_cast<double>(m.waiter_count));
  r.gauge("space.waiter_bytes", l).add(static_cast<double>(m.waiter_bytes));
  r.gauge("space.tentative", l).add(static_cast<double>(m.tentative_count));
  r.gauge("space.bytes", l).add(static_cast<double>(m.total_bytes()));
}

/// Folds one instance's lease ledger (grants, ends by kind, refusals) into
/// the exportable registry as scenario-labeled counters, summed across the
/// scenario's instances like export_space_memory.
inline void export_leases(core::Instance& i, const std::string& scenario) {
  auto& r = registry();
  const obs::Labels l{{"scenario", scenario}};
  for (const char* name :
       {"lease.granted", "lease.released", "lease.expired", "lease.revoked",
        "lease.refused_by_policy", "lease.refused_by_requester"}) {
    r.counter(name, l).add(i.metrics().counter(name).value());
  }
}

/// Fold a finished World's network accounting into the exportable registry:
/// scenario-labeled totals plus per-peer (source node) message/byte counts
/// aggregated from the per-link ledger.
inline void export_net(const World& w, const std::string& scenario) {
  auto& r = registry();
  const obs::Labels base{{"scenario", scenario}};
  const sim::NetStats& s = w.net.stats();
  r.counter("net.unicasts", base).add(s.unicasts_sent);
  r.counter("net.multicasts", base).add(s.multicasts_sent);
  r.counter("net.deliveries", base).add(s.deliveries);
  r.counter("net.drops", base)
      .add(s.drops_invisible + s.drops_loss + s.drops_dead);
  r.counter("net.drops.invisible", base).add(s.drops_invisible);
  r.counter("net.drops.loss", base).add(s.drops_loss);
  r.counter("net.drops.dead", base).add(s.drops_dead);
  r.counter("net.bytes", base).add(s.bytes_sent);
  std::map<sim::NodeId, sim::LinkStats> per_peer;
  for (const auto& [link, ls] : w.net.link_stats()) {
    auto& agg = per_peer[link.first];
    agg.messages += ls.messages;
    agg.bytes += ls.bytes;
  }
  for (const auto& [from, ls] : per_peer) {
    obs::Labels l = base;
    l.emplace_back("peer", std::to_string(from));
    r.counter("net.peer.messages", l).add(ls.messages);
    r.counter("net.peer.bytes", l).add(ls.bytes);
  }
}

}  // namespace tiamat::bench
