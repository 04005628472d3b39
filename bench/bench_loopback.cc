// Transport-backend throughput: the full Tiamat stack (leases, matching
// engine, logical-space ops) driven over the pluggable transport layer
// (DESIGN.md §10), selected at runtime with `--transport=sim|loopback`.
//
// Over the loopback backend this is the repo's one genuinely multi-threaded
// benchmark: N instances are sharded across the backend's worker pool and
// run their op chains concurrently, so the headline `transport.ops_per_sec`
// is real parallel throughput (wall clock), not virtual time. Over the sim
// backend the identical workload measures the single-threaded engine speed,
// making the two snapshots directly comparable.
//
// Scenarios:
//   BM_KeyedTakeChain/N  N instances each run a self-sustaining chain of
//                        local (out key_i; inp key_i) pairs on their own
//                        strand — pure per-strand engine throughput, no
//                        cross-node traffic, scales with workers.
//   BM_RemoteTake/N      N producers pre-publish keyed tuples; N consumers
//                        then drain them with sequential remote inp's —
//                        every take crosses strands (probe, tentative
//                        remove, first-response-wins Confirm).
//
// The committed BENCH_loopback.json is a `--transport=loopback --json` run;
// its counters are traffic totals from the backend's own ledger plus the
// ops/sec headline (wall-clock flavoured, so it is not perf-gated).
//
// `--contention` adds BM_SchedContention: a sweep over worker-pool sizes
// running keyed chains plus timer churn while a TimeSeriesRecorder (driven
// by the loopback's own timers, on its own strand) samples the scheduler
// telemetry through obs::SchedExporter — per-worker queue depth, strand
// lag, utilization, lock-wait and timer-cancel counts, exported as the
// transport.sched.* families (`--series` records them; render with
// `tiamat-inspect sched`).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_main.h"
#include "bench/bench_util.h"
#include "core/instance.h"
#include "obs/sched.h"
#include "obs/series.h"
#include "transport/loopback_transport.h"
#include "transport/transport.h"

namespace tiamat::bench {
namespace {

constexpr unsigned kWorkers = 4;
constexpr int kOpsPerChain = 256;
constexpr int kTakesPerPair = 64;
constexpr int kContentionOps = 1024;    // per-chain ops in --contention runs
constexpr int kContentionChurn = 256;   // schedule+cancel pairs per run

// Owns one transport of the flavour `--transport` selected. Both are driven
// through the same `transport::Transport&`, so the workload code below is
// backend-blind.
struct AnyBackend {
  AnyBackend() {
    if (transport_backend() == "loopback") {
      transport::LoopbackOptions opts;
      opts.workers = kWorkers;
      loop = std::make_unique<transport::LoopbackTransport>(opts);
    } else {
      world = std::make_unique<World>();
    }
  }
  transport::Transport& tx() {
    return loop ? static_cast<transport::Transport&>(*loop)
                : static_cast<transport::Transport&>(world->tx);
  }
  std::unique_ptr<World> world;
  std::unique_ptr<transport::LoopbackTransport> loop;
};

core::Config chain_config(const std::string& name) {
  core::Config cfg = bench_config(name, sim::seconds(30));
  return cfg;
}

// ---------------------------------------------------------------------------
// Scenario 1: per-strand keyed out+take chains, no cross-node traffic.

struct ChainState {
  core::Instance* inst = nullptr;
  std::string key;
  std::int64_t seq = 0;
  int remaining = 0;
  std::shared_ptr<std::atomic<int>> live;  // chains still running
};

// One chain step; runs on the owner's strand. The completion callback posts
// the next step instead of recursing, so chains of any length are
// stack-safe even when the local match resolves synchronously.
void chain_step(transport::Transport& t, std::shared_ptr<ChainState> c) {
  c->inst->out(tuples::Tuple{"job", c->key, c->seq++});
  const bool granted = c->inst->inp(
      tuples::Pattern{"job", c->key, tuples::any_int()},
      [&t, c](std::optional<core::ReadResult>) {
        if (--c->remaining > 0) {
          t.post(c->inst->node(), [&t, c] { chain_step(t, c); });
        } else {
          --*c->live;
        }
      });
  if (!granted) --*c->live;
}

void BM_KeyedTakeChain(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  std::uint64_t total_ops = 0;
  double total_secs = 0.0;
  transport::LoopbackTransport::Stats traffic;
  for (auto _ : state) {
    AnyBackend backend;
    transport::Transport& t = backend.tx();
    std::vector<std::unique_ptr<core::Instance>> insts;
    insts.reserve(nodes);
    for (int i = 0; i < nodes; ++i) {
      insts.push_back(std::make_unique<core::Instance>(
          t, chain_config("chain-" + std::to_string(i))));
    }
    auto live = std::make_shared<std::atomic<int>>(nodes);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < nodes; ++i) {
      auto c = std::make_shared<ChainState>();
      c->inst = insts[i].get();
      c->key = "key-" + std::to_string(i);
      c->remaining = kOpsPerChain;
      c->live = live;
      t.post(c->inst->node(), [&t, c] { chain_step(t, c); });
    }
    const bool done = t.wait_until([&] { return *live == 0; },
                                   120 * transport::kSecond);
    const auto t1 = std::chrono::steady_clock::now();
    if (!done) {
      state.SkipWithError("op chains did not complete");
      return;
    }
    total_ops += static_cast<std::uint64_t>(nodes) * kOpsPerChain * 2;
    total_secs += std::chrono::duration<double>(t1 - t0).count();
    if (backend.loop) traffic = backend.loop->stats();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_ops));
  const std::string scenario = "keyed_take/" + std::to_string(nodes);
  const obs::Labels l{{"scenario", scenario},
                      {"backend", transport_backend()}};
  auto& r = registry();
  r.counter("transport.ops", l).add(total_ops);
  r.gauge("transport.ops_per_sec", l)
      .set(total_secs > 0 ? static_cast<double>(total_ops) / total_secs : 0);
  r.gauge("transport.workers", l)
      .set(transport_backend() == "loopback" ? kWorkers : 1);
  r.counter("transport.unicasts", l).add(traffic.unicasts_sent);
  r.counter("transport.multicasts", l).add(traffic.multicasts_sent);
  r.counter("transport.deliveries", l).add(traffic.deliveries);
  r.counter("transport.bytes", l).add(traffic.bytes_sent);
}

// ---------------------------------------------------------------------------
// Scenario 2: remote takes — every op crosses strands.

struct DrainState {
  core::Instance* consumer = nullptr;
  std::string key;
  int remaining = 0;
  std::shared_ptr<std::atomic<int>> live;
  std::shared_ptr<std::atomic<int>> taken;
};

void drain_step(transport::Transport& t, std::shared_ptr<DrainState> c) {
  const bool granted = c->consumer->inp(
      tuples::Pattern{"stock", c->key, tuples::any_int()},
      [&t, c](std::optional<core::ReadResult> r) {
        if (r) ++*c->taken;
        if (--c->remaining > 0) {
          t.post(c->consumer->node(), [&t, c] { drain_step(t, c); });
        } else {
          --*c->live;
        }
      });
  if (!granted) --*c->live;
}

void BM_RemoteTake(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  std::uint64_t total_ops = 0;
  std::uint64_t total_taken = 0;
  double total_secs = 0.0;
  transport::LoopbackTransport::Stats traffic;
  for (auto _ : state) {
    AnyBackend backend;
    transport::Transport& t = backend.tx();
    std::vector<std::unique_ptr<core::Instance>> producers;
    std::vector<std::unique_ptr<core::Instance>> consumers;
    for (int i = 0; i < pairs; ++i) {
      producers.push_back(std::make_unique<core::Instance>(
          t, chain_config("producer-" + std::to_string(i))));
      consumers.push_back(std::make_unique<core::Instance>(
          t, chain_config("consumer-" + std::to_string(i))));
    }
    // Pre-publish the stock on each producer's strand (untimed: the timed
    // section is the remote-take drain).
    auto published = std::make_shared<std::atomic<int>>(0);
    for (int i = 0; i < pairs; ++i) {
      core::Instance* p = producers[i].get();
      const std::string key = "key-" + std::to_string(i);
      t.post(p->node(), [p, key, published] {
        for (int n = 0; n < kTakesPerPair; ++n) {
          p->out(tuples::Tuple{"stock", key, std::int64_t{n}});
        }
        ++*published;
      });
    }
    if (!t.wait_until([&] { return *published == pairs; },
                      60 * transport::kSecond)) {
      state.SkipWithError("publish phase did not complete");
      return;
    }
    auto live = std::make_shared<std::atomic<int>>(pairs);
    auto taken = std::make_shared<std::atomic<int>>(0);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < pairs; ++i) {
      auto c = std::make_shared<DrainState>();
      c->consumer = consumers[i].get();
      c->key = "key-" + std::to_string(i);
      c->remaining = kTakesPerPair;
      c->live = live;
      c->taken = taken;
      t.post(c->consumer->node(), [&t, c] { drain_step(t, c); });
    }
    const bool done = t.wait_until([&] { return *live == 0; },
                                   120 * transport::kSecond);
    const auto t1 = std::chrono::steady_clock::now();
    if (!done) {
      state.SkipWithError("drain phase did not complete");
      return;
    }
    total_ops += static_cast<std::uint64_t>(pairs) * kTakesPerPair;
    total_taken += static_cast<std::uint64_t>(*taken);
    total_secs += std::chrono::duration<double>(t1 - t0).count();
    if (backend.loop) traffic = backend.loop->stats();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_ops));
  state.counters["taken"] =
      benchmark::Counter(static_cast<double>(total_taken));
  const std::string scenario = "remote_take/" + std::to_string(pairs);
  const obs::Labels l{{"scenario", scenario},
                      {"backend", transport_backend()}};
  auto& r = registry();
  r.counter("transport.ops", l).add(total_ops);
  r.gauge("transport.ops_per_sec", l)
      .set(total_secs > 0 ? static_cast<double>(total_ops) / total_secs : 0);
  r.gauge("transport.workers", l)
      .set(transport_backend() == "loopback" ? kWorkers : 1);
  r.counter("transport.unicasts", l).add(traffic.unicasts_sent);
  r.counter("transport.multicasts", l).add(traffic.multicasts_sent);
  r.counter("transport.deliveries", l).add(traffic.deliveries);
  r.counter("transport.bytes", l).add(traffic.bytes_sent);
}

// ---------------------------------------------------------------------------
// Scenario 3 (--contention): scheduler stress sweep over worker counts.

// Always builds its own LoopbackTransport (the scenario measures the
// loopback scheduler; --transport only labels the other scenarios).
void BM_SchedContention(benchmark::State& state, unsigned workers) {
  const std::string scenario = "contention/" + std::to_string(workers);
  std::uint64_t total_ops = 0;
  double total_secs = 0.0;
  transport::LoopbackTransport::SchedStats sched;
  for (auto _ : state) {
    transport::LoopbackOptions opts;
    opts.workers = workers;
    transport::LoopbackTransport t(opts);
    const int nodes = static_cast<int>(workers) * 2;
    std::vector<std::unique_ptr<core::Instance>> insts;
    insts.reserve(nodes);
    for (int i = 0; i < nodes; ++i) {
      insts.push_back(std::make_unique<core::Instance>(
          t, chain_config("contend-" + std::to_string(i))));
      maybe_trace(*insts.back());
    }
    // Scheduler telemetry: the exporter folds sched_stats() into its own
    // registry as the recorder's refresh hook, so every tick — running on
    // the recorder node's strand — samples fresh numbers.
    obs::Registry sched_reg;
    obs::SchedExporter exporter(sched_reg, t);
    const transport::NodeId rec_node = t.add_node();
    std::unique_ptr<obs::TimeSeriesRecorder> rec;
    if (series_enabled()) {
      obs::SeriesOptions sopts;
      // Wall-clock time here, and the sweep runs only a few ms per worker
      // count: sample densely enough to give the series some shape.
      sopts.interval = transport::kMillisecond / 2;
      rec = std::make_unique<obs::TimeSeriesRecorder>(t.timers(rec_node),
                                                      sopts);
      rec->add_source("sched", &sched_reg, [&exporter] { exporter.update(); });
      rec->start();
    }
    auto live = std::make_shared<std::atomic<int>>(nodes);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < nodes; ++i) {
      auto c = std::make_shared<ChainState>();
      c->inst = insts[i].get();
      c->key = "key-" + std::to_string(i);
      c->remaining = kContentionOps;
      c->live = live;
      t.post(c->inst->node(), [&t, c] { chain_step(t, c); });
    }
    // Timer churn from the bench thread while the chains run:
    // schedule-then-cancel feeds the cancel accounting.
    for (int k = 0; k < kContentionChurn; ++k) {
      const auto id = t.timers(rec_node).schedule_at(0, [] {});
      t.timers(rec_node).cancel(id);
    }
    const bool done = t.wait_until([&] { return *live == 0; },
                                   120 * transport::kSecond);
    const auto t1 = std::chrono::steady_clock::now();
    if (!done) {
      state.SkipWithError("contention chains did not complete");
      return;
    }
    if (rec) {
      // stop() must be serialized with the self-rearming tick: run it on
      // the recorder's own strand, then collect the document.
      auto stopped = std::make_shared<std::atomic<bool>>(false);
      t.post(rec_node, [&rec, stopped] {
        rec->stop();
        *stopped = true;
      });
      t.wait_until([&] { return stopped->load(); }, 30 * transport::kSecond);
      export_series(std::move(rec), scenario);
    }
    sched = t.sched_stats();
    for (auto& inst : insts) drain_trace(*inst);
    total_ops += static_cast<std::uint64_t>(nodes) * kContentionOps * 2;
    total_secs += std::chrono::duration<double>(t1 - t0).count();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_ops));
  const obs::Labels l{{"scenario", scenario}, {"backend", "loopback"}};
  auto& r = registry();
  r.counter("transport.ops", l).add(total_ops);
  r.gauge("transport.ops_per_sec", l)
      .set(total_secs > 0 ? static_cast<double>(total_ops) / total_secs : 0);
  r.gauge("transport.workers", l).set(workers);
  std::uint64_t tasks = 0, cancels = 0, busy = 0;
  std::uint64_t depth_max = 0, lag_max = 0;
  for (const auto& w : sched.workers) {
    tasks += w.tasks;
    cancels += w.cancels;
    busy += w.busy_us;
    depth_max = std::max(depth_max, w.queue_depth_max);
    lag_max = std::max(lag_max, w.lag_us_max);
  }
  r.counter("transport.sched.tasks", l).add(tasks);
  r.counter("transport.sched.cancels", l).add(cancels);
  r.counter("transport.sched.lock_wait_us", l).add(sched.lock_wait_us);
  r.gauge("transport.sched.queue_depth_max", l)
      .set(static_cast<double>(depth_max));
  r.gauge("transport.sched.strand_lag_max_us", l)
      .set(static_cast<double>(lag_max));
  const double wall =
      static_cast<double>(sched.uptime_us) * static_cast<double>(workers);
  r.gauge("transport.sched.utilization", l)
      .set(wall > 0 ? static_cast<double>(busy) / wall : 0.0);
}

BENCHMARK(BM_KeyedTakeChain)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();
BENCHMARK(BM_RemoteTake)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace
}  // namespace tiamat::bench

int main(int argc, char** argv) {
  return tiamat::bench::run_main(argc, argv, "loopback", [] {
    if (!tiamat::bench::contention_enabled()) return;
    for (const unsigned w : {1u, 2u, 4u, 8u}) {
      benchmark::RegisterBenchmark(
          ("BM_SchedContention/workers:" + std::to_string(w)).c_str(),
          [w](benchmark::State& s) { tiamat::bench::BM_SchedContention(s, w); })
          ->UseRealTime()
          ->Iterations(1);
    }
  });
}
