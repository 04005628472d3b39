// Runs a workload's set-ups and timed sections and derives the reported
// metrics from them.

#include "workloads.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>

#include "common.h"
#include "net/message.h"
#include "space/local_space.h"

namespace perfbench {

using tiamat::transport::Duration;

// ---- Shared workload pieces ------------------------------------------------------

tiamat::lease::DefaultLeasePolicy::Caps lifted_caps(Duration max_ttl) {
  tiamat::lease::DefaultLeasePolicy::Caps c;
  c.max_ttl = max_ttl;
  c.default_ttl = tiamat::transport::seconds(10);
  c.default_contacts = 64;
  c.max_contacts = 128;
  c.max_stored_bytes = std::size_t{1} << 40;
  c.max_active_ops = std::size_t{1} << 40;
  return c;
}

std::unique_ptr<tiamat::core::Instance> make_instance(
    tiamat::transport::Transport& tx, const std::string& name, Duration max_ttl,
    Tracer* tracer) {
  tiamat::core::Config cfg;
  cfg.name = name;
  cfg.lease_caps = lifted_caps(max_ttl);
  std::unique_ptr<tiamat::lease::LeasePolicy> policy;
  if (tracer != nullptr) policy = std::make_unique<TracedPolicy>(*tracer, cfg.lease_caps);
  return std::make_unique<tiamat::core::Instance>(tx, cfg, std::move(policy));
}

namespace {
tiamat::sim::LinkModel bench_links() {
  tiamat::sim::LinkModel m;
  m.base_latency = 2 * tiamat::sim::kMillisecond;
  m.per_kilobyte = 100;
  m.jitter = 200;
  m.loss = 0.0;
  return m;
}
}  // namespace

SimWorld::SimWorld(std::uint64_t seed, Tracer* tracer)
    : rng(seed), net(queue, rng, bench_links()), sim_tx(net) {
  if (tracer != nullptr) {
    traced = std::make_unique<TracedTransport>(sim_tx, *tracer);
  }
}

LayerCounts registry_counts(const std::vector<tiamat::core::Instance*>& instances) {
  LayerCounts c;
  for (tiamat::core::Instance* i : instances) {
    tiamat::obs::Registry& r = i->metrics();
    c.lease_granted += r.counter("lease.granted").value();
    c.waiters_candidates += r.counter("waiters.candidates").value();
    c.match_candidates += r.counter("match.candidates").value();
    c.match_lookups += r.counter("match.bucket_probes").value() +
                       r.counter("match.scan_fallbacks").value();
    c.probes += r.counter("op.probes").value();
    c.refusals += r.counter("op.lease_refused").value() +
                  r.counter("lease.refused_by_policy").value() +
                  r.counter("out.refused").value();
  }
  return c;
}

LayerCounts delta(const LayerCounts& a, const LayerCounts& b) {
  LayerCounts d = a;
  d.lease_granted -= b.lease_granted;
  d.waiters_candidates -= b.waiters_candidates;
  d.match_candidates -= b.match_candidates;
  d.match_lookups -= b.match_lookups;
  d.probes -= b.probes;
  d.refusals -= b.refusals;
  d.msgs -= b.msgs;
  d.bytes -= b.bytes;
  return d;
}

void close_window(TimedResult& r, int w, std::int64_t w_start, std::int64_t t,
                  double cpu_start, double cpu_end, std::uint64_t ops) {
  Window& win = r.windows[static_cast<std::size_t>(w)];
  win.wall_s = static_cast<double>(t - w_start) / 1e9;
  win.cpu_s = cpu_end - cpu_start;
  win.ops = ops;
}

void record(tiamat::obs::QuantileSketch& s, std::int64_t v) {
  AllocPause pause;
  s.observe(static_cast<double>(v));
}

double interpolated_quantile(const tiamat::obs::QuantileSketch& s, double q) {
  using tiamat::obs::QuantileSketch;
  const std::uint64_t total = s.count();
  if (total == 0) return 0;
  // Rank of the wanted sample (0-based, fractional), then its place in its
  // bucket, the bucket's samples spread evenly over its integer range.
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total - 1);
  std::uint64_t below = 0;
  for (const auto& [index, n] : s.buckets()) {
    if (rank < static_cast<double>(below + n)) {
      const double lo = index == 0 ? 0.0 : QuantileSketch::upper_edge(index - 1) + 1;
      const double width = QuantileSketch::upper_edge(index) + 1 - lo;
      return lo + (rank - static_cast<double>(below) + 0.5) / static_cast<double>(n) * width;
    }
    below += n;
  }
  return s.max();
}

void finish_latency(Window& w, tiamat::obs::QuantileSketch& lat) {
  AllocPause pause;
  w.p50_us = interpolated_quantile(lat, 0.50) / 1e3;
  w.p99_us = interpolated_quantile(lat, 0.99) / 1e3;
  lat = tiamat::obs::QuantileSketch{};
}

void start_recording(Tracer* tracer) {
  if (tracer == nullptr) return;
  tracer->set_recording(true);
  set_alloc_counting(true);
}

void stop_recording(Tracer* tracer, const AllocCounts& start, TimedResult& r) {
  if (tracer == nullptr) return;
  tracer->set_recording(false);
  set_alloc_counting(false);
  const AllocCounts end = alloc_counts();
  r.allocs.calls = end.calls - start.calls;
  r.allocs.bytes = end.bytes - start.bytes;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// ---- Runs and metrics --------------------------------------------------------------

namespace {

// Wall-clock metrics are read per window of this many seconds. On a shared
// host the speed of a run switches between a common slow state and a
// faster one every few seconds, and how much of a run the fast state
// covers decides a median. The reported figure is instead the one the run
// reached in three windows out of four (the first quartile of throughput,
// the third of latency and CPU per op), which reads the common state in
// every run.
constexpr double kWindowSeconds = 0.5;
// An untraced run is this many rounds, each a set-up followed by an equal
// share of the timed section. Set-up is short, so set-ups made back to back
// all fall in one state of the host; spread over the run, they are reduced
// by the same three-in-four rule as the windows.
constexpr int kRounds = 10;

int window_count(double seconds) {
  return std::max(1, static_cast<int>(seconds / kWindowSeconds));
}

/// The q-quantile of `v`, interpolated between neighbours.
double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The cost a run stayed within in three samples out of four.
double sustained(std::vector<double> v) { return quantile_of(std::move(v), 0.75); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// A per-window figure over the windows that completed ops.
template <typename F>
std::vector<double> per_window(const TimedResult& r, F f) {
  std::vector<double> v;
  for (const Window& w : r.windows) {
    if (w.ops > 0 && w.wall_s > 0) v.push_back(f(w));
  }
  return v;
}

/// Adds one round's timed section to the run's.
void absorb(TimedResult& run, const TimedResult& round) {
  run.attempted += round.attempted;
  run.failed += round.failed;
  run.layers.refusals += round.layers.refusals;
  if (!round.correct) run.fail(round.error);
  run.windows.insert(run.windows.end(), round.windows.begin(), round.windows.end());
  run.wall_s += round.wall_s;
  run.transport_latency_us.merge(round.transport_latency_us);
}

struct CodecCost {
  double encode_ns = 0;
  double decode_ns = 0;
};

/// Per-message encode/decode time over the captured message mix: the
/// median of several passes over every captured payload.
CodecCost replay_codec(const std::vector<std::vector<std::uint8_t>>& payloads) {
  CodecCost c;
  if (payloads.empty()) return c;
  std::vector<tiamat::net::Message> decoded;
  decoded.reserve(payloads.size());
  std::vector<double> enc, dec;
  std::size_t sink = 0;
  for (int pass = 0; pass < 7; ++pass) {
    decoded.clear();
    const std::int64_t t0 = now_ns();
    for (const auto& p : payloads) {
      if (auto m = tiamat::net::decode_message(p)) decoded.push_back(std::move(*m));
    }
    const std::int64_t t1 = now_ns();
    for (const auto& m : decoded) sink += tiamat::net::encode_message(m).size();
    const std::int64_t t2 = now_ns();
    dec.push_back(static_cast<double>(t1 - t0) / static_cast<double>(payloads.size()));
    enc.push_back(static_cast<double>(t2 - t1) /
                  static_cast<double>(std::max<std::size_t>(decoded.size(), 1)));
  }
  if (sink == 0) std::fputs("perfbench: codec replay produced no bytes\n", stderr);
  c.decode_ns = quantile_of(dec, 0.5);
  c.encode_ns = quantile_of(enc, 0.5);
  return c;
}

struct SpaceCost {
  double out_ns = 0;
  double inp_ns = 0;
};

/// Replays the workload's outs and inps on a standalone LocalTupleSpace
/// holding the workload's resident set.
SpaceCost replay_space(const SpaceReplay& in) {
  SpaceCost c;
  if (in.ops.empty()) return c;
  tiamat::sim::EventQueue queue;
  tiamat::sim::Rng rng(1);
  tiamat::space::LocalTupleSpace space(queue, rng);
  for (const auto& t : in.resident) space.out(t);
  std::int64_t out_ns = 0;
  std::int64_t inp_ns = 0;
  std::size_t hits = 0;
  for (const auto& [t, p] : in.ops) {
    const std::int64_t t0 = now_ns();
    space.out(t);
    const std::int64_t t1 = now_ns();
    const bool hit = space.inp(p).has_value();
    const std::int64_t t2 = now_ns();
    out_ns += t1 - t0;
    inp_ns += t2 - t1;
    hits += hit ? 1 : 0;
  }
  if (hits != in.ops.size()) std::fputs("perfbench: space replay missed\n", stderr);
  const double n = static_cast<double>(in.ops.size());
  c.out_ns = static_cast<double>(out_ns) / n;
  c.inp_ns = static_cast<double>(inp_ns) / n;
  return c;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "local_pair") return make_local_pair(seed);
  if (name == "web_request") return make_web_request(seed);
  return nullptr;
}

void end_to_end(const TimedResult& r, double setup_s, Report& out) {
  auto add = [&](const char* name, double v, const char* unit) {
    out.metrics.push_back(Metric{name, v, unit});
  };
  const double p50 = sustained(per_window(r, [](const Window& w) { return w.p50_us; }));
  const double p99 = sustained(per_window(r, [](const Window& w) { return w.p99_us; }));
  // Throughput sustained in three windows out of four: the first quartile.
  add("ops_per_s",
      quantile_of(per_window(r, [](const Window& w) {
                    return static_cast<double>(w.ops) / w.wall_s;
                  }),
                  0.25),
      "1/s");
  add("op_p50_us", p50, "us");
  add("op_p99_us", p99, "us");
  // The sim clock does not advance during a synchronous op (local_pair);
  // there the op's wall time is the only latency it has.
  const bool has_transport = r.transport_latency_us.count() > 0;
  add("op_sim_p50_ms",
      has_transport ? interpolated_quantile(r.transport_latency_us, 0.50) / 1e3 : p50 / 1e3,
      "ms");
  add("op_sim_p99_ms",
      has_transport ? interpolated_quantile(r.transport_latency_us, 0.99) / 1e3 : p99 / 1e3,
      "ms");
  add("cpu_us_per_op", sustained(per_window(r, [](const Window& w) {
        return w.cpu_s * 1e6 / static_cast<double>(w.ops);
      })), "us");
  add("peak_rss_mib", peak_rss_mib(), "MiB");
  add("setup_s", setup_s, "s");
}

void per_layer(const Workload& w, const TimedResult& base, const TimedResult& traced,
               const Tracer& tracer, Report& out) {
  auto add = [&](const char* name, double v, const char* unit) {
    out.metrics.push_back(Metric{name, v, unit});
  };
  const double ops = static_cast<double>(std::max<std::uint64_t>(traced.attempted, 1));
  auto us_per_op = [&](double ns) { return ns / 1e3 / ops; };
  auto per_op = [&](double n) { return n / ops; };

  const SpanTotals call = tracer.totals(SpanName::kCall);
  const SpanTotals deliver = tracer.totals(SpanName::kDeliver);
  const SpanTotals callback = tracer.totals(SpanName::kCallback);
  const SpanTotals offer = tracer.totals(SpanName::kOffer);
  SpanTotals send = tracer.totals(SpanName::kSend);
  send += tracer.totals(SpanName::kMulticast);
  send += tracer.totals(SpanName::kPost);
  const SpanTotals schedule = tracer.totals(SpanName::kSchedule);
  const SpanTotals cancel = tracer.totals(SpanName::kCancel);
  const SpanTotals drive = tracer.totals(SpanName::kDrive);
  const CodecCost codec = replay_codec(traced.captured);
  const SpaceCost space = replay_space(w.space_replay());
  const LayerCounts& L = traced.layers;

  add("core.call_us", us_per_op(static_cast<double>(call.self_ns)), "us");
  add("core.serve_us",
      us_per_op(static_cast<double>(deliver.self_ns) -
                codec.decode_ns * static_cast<double>(deliver.count)),
      "us");
  add("core.callback_us", us_per_op(static_cast<double>(callback.self_ns)), "us");
  add("lease.offer_us", us_per_op(static_cast<double>(offer.self_ns)), "us");
  add("lease.grants_per_op", per_op(static_cast<double>(L.lease_granted)), "count");
  add("lease.active_end", static_cast<double>(L.lease_active_end), "count");
  add("space.out_us", space.out_ns / 1e3, "us");
  add("space.inp_us", space.inp_ns / 1e3, "us");
  add("waiters.candidates_per_op", per_op(static_cast<double>(L.waiters_candidates)), "count");
  add("match.candidates_per_lookup",
      L.match_lookups == 0 ? 0.0
                           : static_cast<double>(L.match_candidates) /
                                 static_cast<double>(L.match_lookups),
      "count");
  add("net.msgs_per_op", per_op(static_cast<double>(L.msgs)), "count");
  add("net.bytes_per_op", per_op(static_cast<double>(L.bytes)), "B");
  add("net.probes_per_op", per_op(static_cast<double>(L.probes)), "count");
  add("net.encode_us", codec.encode_ns / 1e3, "us");
  add("net.decode_us", codec.decode_ns / 1e3, "us");
  add("transport.send_us", us_per_op(static_cast<double>(send.self_ns)), "us");
  add("transport.timer_us",
      us_per_op(static_cast<double>(schedule.self_ns + cancel.self_ns)), "us");
  add("transport.drive_us", us_per_op(static_cast<double>(drive.self_ns)), "us");
  add("transport.timers_per_op", per_op(static_cast<double>(schedule.count)), "count");
  add("transport.timer_cancels_per_op", per_op(static_cast<double>(cancel.count)), "count");
  add("alloc.per_op", per_op(static_cast<double>(traced.allocs.calls)), "count");
  add("alloc.bytes_per_op", per_op(static_cast<double>(traced.allocs.bytes)), "B");

  const double base_rate = static_cast<double>(base.attempted) / base.wall_s;
  const double traced_rate = static_cast<double>(traced.attempted) / traced.wall_s;
  add("trace.overhead_share", (base_rate - traced_rate) / base_rate, "share");
  // How much of the traced wall time the layer self times account for (the
  // rest is the benchmark's own loop).
  add("trace.accounted_share",
      static_cast<double>(tracer.total_self_ns()) / (traced.wall_s * 1e9), "share");
}

}  // namespace

bool run_benchmark(const RunOptions& opts, Report& report) {
  std::unique_ptr<Workload> w = make_workload(opts.workload, opts.seed);
  if (!w) return false;
  if (!opts.trace) {
    TimedResult r;
    std::vector<double> setups;
    const double slice = opts.seconds / kRounds;
    for (int round = 0; round < kRounds; ++round) {
      const std::int64_t t0 = now_ns();
      w->setup(nullptr);
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      absorb(r, w->run(slice, window_count(slice)));
      w->reset();
    }
    for (const Window& win : r.windows) {
      std::fprintf(stderr, "  window %8.0f ops/s  p50 %8.3f us  p99 %8.3f us  cpu %6.3f\n",
                   static_cast<double>(win.ops) / win.wall_s, win.p50_us, win.p99_us,
                   win.cpu_s / win.wall_s);
    }
    report.correct = r.correct;
    report.attempted = r.attempted;
    report.failed = std::max(r.failed, r.layers.refusals);
    if (!r.correct) std::fprintf(stderr, "perfbench: check failed: %s\n", r.error.c_str());
    end_to_end(r, sustained(setups), report);
    return true;
  }

  // Traced invocation: an untraced half and a traced half of one seed, so
  // the overhead and the fidelity of the decorators are measured in one
  // process.
  const double half = opts.seconds / 2;
  w->reset();
  w->setup(nullptr);
  const TimedResult base = w->run(half, window_count(half));
  w->reset();
  Tracer tracer;
  w->setup(&tracer);
  const TimedResult traced = w->run(half, window_count(half));
  w->reset();

  report.correct = base.correct && traced.correct;
  if (!base.correct) std::fprintf(stderr, "perfbench: check failed: %s\n", base.error.c_str());
  if (!traced.correct) {
    std::fprintf(stderr, "perfbench: traced check failed: %s\n", traced.error.c_str());
  }
  if (base.fingerprint != traced.fingerprint) {
    report.correct = false;
    std::fputs("perfbench: traced run diverged from the untraced run\n", stderr);
  }
  report.attempted = base.attempted + traced.attempted;
  report.failed = std::max(base.failed, base.layers.refusals) +
                  std::max(traced.failed, traced.layers.refusals);
  per_layer(*w, base, traced, tracer, report);
  if (!opts.trace_out.empty() && !tracer.write_chrome_json(opts.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opts.trace_out.c_str());
  }
  return true;
}

}  // namespace perfbench
