// Continuous-telemetry tests: the log-bucketed quantile sketch (bucket
// math, quantile queries, merge/window algebra, snapshot round-trip) and
// the TimeSeriesRecorder — byte-determinism across seeded
// runs, bounded memory under long runs, and the health-probe catalog
// firing (and leaving its trace/counter footprints) in a partition
// scenario.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/instance.h"
#include "obs/metrics.h"
#include "obs/quantile.h"
#include "obs/series.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace tiamat {
namespace {

using core::Config;
using core::Instance;
using obs::QuantileSketch;
using obs::TimeSeriesRecorder;
using tiamat::testing::World;
using tuples::Pattern;
using tuples::Tuple;

// ---------------- Quantile sketch ----------------

TEST(Quantile, SmallValuesHaveExactBuckets) {
  // The first 2^kSubBits integers are their own buckets: no error at all
  // for tiny latencies.
  for (std::uint64_t v = 0; v < (1u << QuantileSketch::kSubBits); ++v) {
    const std::uint32_t b = QuantileSketch::bucket_of(static_cast<double>(v));
    EXPECT_EQ(b, v);
    EXPECT_EQ(QuantileSketch::upper_edge(b), v);
  }
}

TEST(Quantile, BucketEdgesAreMonotonicAndCoverValues) {
  double prev_edge = -1.0;
  for (double v = 1.0; v < 1e15; v *= 1.7) {
    const std::uint32_t b = QuantileSketch::bucket_of(v);
    const double edge = static_cast<double>(QuantileSketch::upper_edge(b));
    EXPECT_LE(v, edge + 1.0);  // the bucket's edge covers its members
    EXPECT_GE(edge, prev_edge);
    prev_edge = edge;
    // Relative error bound of the log2/32-sub-bucket layout: ~3.2%.
    if (v >= 32.0) {
      EXPECT_LT((edge - v) / v, 0.033)
          << "bucket edge " << edge << " too far above " << v;
    }
  }
}

TEST(Quantile, EmptyAndSingleSample) {
  QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.p99(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);

  s.observe(1234.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 1234.5);
  // Any quantile of one sample is that sample; the top bucket reports the
  // exact max rather than its (coarser) bucket edge.
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1234.5);
  EXPECT_DOUBLE_EQ(s.p50(), 1234.5);
  EXPECT_DOUBLE_EQ(s.p99(), 1234.5);
  EXPECT_DOUBLE_EQ(s.max(), 1234.5);
}

TEST(Quantile, NonPositiveAndHugeValuesLandInEndBuckets) {
  QuantileSketch s;
  s.observe(0.0);
  s.observe(-17.0);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.p99(), 0.0);  // both clamp to bucket 0

  // Values beyond the cap saturate instead of overflowing the bit math.
  QuantileSketch big;
  big.observe(1e30);
  EXPECT_EQ(big.count(), 1u);
  EXPECT_DOUBLE_EQ(big.max(), 1e30);
  EXPECT_GT(big.quantile(0.5), 1e18);
}

TEST(Quantile, QuantilesOfUniformRangeStayWithinRelativeError) {
  QuantileSketch s;
  for (int i = 1; i <= 10000; ++i) s.observe(static_cast<double>(i));
  EXPECT_EQ(s.count(), 10000u);
  EXPECT_DOUBLE_EQ(s.max(), 10000.0);
  const double p50 = s.p50();
  const double p90 = s.p90();
  const double p99 = s.p99();
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, s.max());
  // Each reported quantile is the upper edge of the containing bucket:
  // never below the true value, within the layout's relative error above.
  EXPECT_GE(p50, 5000.0);
  EXPECT_LT(p50, 5000.0 * 1.04);
  EXPECT_GE(p90, 9000.0);
  EXPECT_LT(p90, 9000.0 * 1.04);
  EXPECT_GE(p99, 9900.0);
  EXPECT_LT(p99, 9900.0 * 1.04);
}

TEST(Quantile, MergeEqualsObservingEverything) {
  QuantileSketch a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double va = 10.0 * i + 3.0;
    const double vb = 7.0 * i + 900.0;
    a.observe(va);
    b.observe(vb);
    all.observe(va);
    all.observe(vb);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_EQ(a.buckets(), all.buckets());
  EXPECT_DOUBLE_EQ(a.p50(), all.p50());
  EXPECT_DOUBLE_EQ(a.p99(), all.p99());
}

TEST(Quantile, DeltaSinceIsTheWindowBetweenSnapshots) {
  QuantileSketch s;
  for (int i = 0; i < 100; ++i) s.observe(50.0);
  const QuantileSketch before = s;
  for (int i = 0; i < 10; ++i) s.observe(7e6);
  const QuantileSketch window = s.delta_since(before);
  EXPECT_EQ(window.count(), 10u);
  // The window only holds the slow tail; the old fast samples are gone.
  EXPECT_GE(window.quantile(0.0), 6e6);
  EXPECT_GE(window.p99(), 6e6);

  // An unrelated (or reset) "previous" yields the empty window rather than
  // underflowing.
  QuantileSketch fresh;
  const QuantileSketch empty = fresh.delta_since(s);
  EXPECT_EQ(empty.count(), 0u);
}

TEST(Quantile, RegistrySnapshotRoundTripIsByteIdentical) {
  obs::Registry r;
  obs::QuantileSketch& s = r.sketch("op.latency_us", {{"op", "in"}});
  for (int i = 1; i <= 1000; ++i) s.observe(i * 13.0);
  r.sketch("op.latency_us");  // empty sketch serializes too
  r.counter("op.started").add(3);

  const std::string s1 = r.snapshot_json();
  auto doc = obs::json::Value::parse(s1);
  ASSERT_TRUE(doc.has_value());

  obs::Registry r2;
  ASSERT_TRUE(r2.load(*doc));
  EXPECT_EQ(r2.snapshot_json(), s1);
  obs::QuantileSketch& s2 = r2.sketch("op.latency_us", {{"op", "in"}});
  EXPECT_EQ(s2.count(), s.count());
  EXPECT_DOUBLE_EQ(s2.sum(), s.sum());
  EXPECT_DOUBLE_EQ(s2.max(), s.max());
  EXPECT_EQ(s2.buckets(), s.buckets());
  EXPECT_DOUBLE_EQ(s2.p99(), s.p99());
}

// ---------------- TimeSeriesRecorder ----------------

// One deterministic two-instance exchange, recorded; returns the series
// document text.
std::string record_run(std::uint64_t seed) {
  World w(seed);
  Config ca;
  ca.name = "a";
  Config cb;
  cb.name = "b";
  auto a = std::make_unique<Instance>(w.tx, ca);
  auto b = std::make_unique<Instance>(w.tx, cb);

  TimeSeriesRecorder rec(w.queue,
                         obs::SeriesOptions{sim::milliseconds(50), 16, 4, 8});
  a->register_telemetry(rec);
  b->register_telemetry(rec);
  rec.start();

  for (int i = 0; i < 20; ++i) {
    b->out(Tuple{"job", i});
    a->in(Pattern{"job", i}, [](auto) {});
  }
  w.run_for(sim::seconds(2));
  rec.stop();
  return rec.to_json().dump(2);
}

TEST(SeriesRecorder, SeededRunsEmitByteIdenticalSeries) {
  const std::string one = record_run(1234);
  const std::string two = record_run(1234);
  EXPECT_EQ(one, two);
  EXPECT_NE(one.find("\"sources\""), std::string::npos);
  EXPECT_NE(one.find("space.bytes"), std::string::npos);
}

TEST(SeriesRecorder, MemoryStaysBoundedUnderLongRuns) {
  World w;
  obs::Registry r;
  obs::SeriesOptions opts;
  opts.interval = sim::milliseconds(10);
  opts.capacity = 8;
  opts.rollup_width = 4;
  opts.rollup_capacity = 3;
  TimeSeriesRecorder rec(w.queue, opts);
  rec.add_source("reg", &r);

  for (int i = 0; i < 1000; ++i) {
    r.counter("op.started").add(1);
    r.gauge("lease.active").set(i % 17);
    rec.sample_now();
  }
  EXPECT_EQ(rec.samples(), 1000u);
  // Raw ring plus rollup windows; everything older was dropped (counted,
  // not silently).
  EXPECT_LE(rec.max_series_points(), opts.capacity + opts.rollup_capacity);
  const std::string doc = rec.to_json().dump();
  EXPECT_NE(doc.find("\"dropped\""), std::string::npos);
}

TEST(SeriesRecorder, WaiterBacklogProbeFiresInPartition) {
  World w;
  Config cfg;
  cfg.name = "isolated";
  cfg.probe_thresholds.waiter_backlog = 4;
  auto node = std::make_unique<Instance>(w.tx, cfg);

  TimeSeriesRecorder rec(w.queue,
                         obs::SeriesOptions{sim::milliseconds(100)});
  node->register_telemetry(rec);
  rec.start();

  // A partitioned node: every blocking take waits on a tuple nobody can
  // provide, so the waiter backlog builds past the threshold.
  for (int i = 0; i < 8; ++i) {
    node->in(Pattern{"never", i}, [](auto) {});
  }
  w.run_for(sim::seconds(1));
  rec.stop();

  EXPECT_GT(rec.breaches(), 0u);
  EXPECT_GE(node->metrics()
                .counter("probe.breaches", {{"probe", "waiter_backlog"}})
                .value(),
            1u);
  // The breach is part of the causal record: the always-on flight recorder
  // kept the kProbeBreach event.
  const auto tail = node->flight_recorder().tail();
  const bool traced =
      std::any_of(tail.begin(), tail.end(), [](const obs::TraceEvent& e) {
        return e.kind == obs::EventKind::kProbeBreach;
      });
  EXPECT_TRUE(traced);

  // The probe's own series is in the document, with its breach count.
  const std::string doc = rec.to_json().dump();
  EXPECT_NE(doc.find("waiter_backlog"), std::string::npos);
}

TEST(SeriesRecorder, StartStopControlSampling) {
  World w;
  obs::Registry r;
  TimeSeriesRecorder rec(w.queue,
                         obs::SeriesOptions{sim::milliseconds(100)});
  rec.add_source("reg", &r);
  EXPECT_FALSE(rec.running());
  rec.start();
  EXPECT_TRUE(rec.running());
  w.run_for(sim::seconds(1));
  const std::uint64_t n = rec.samples();
  EXPECT_GE(n, 9u);
  rec.stop();
  EXPECT_FALSE(rec.running());
  w.run_for(sim::seconds(1));
  EXPECT_EQ(rec.samples(), n);  // no ticks while stopped
}

}  // namespace
}  // namespace tiamat
