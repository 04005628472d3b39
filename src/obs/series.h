// Continuous telemetry: a sim-clock-driven time-series recorder.
//
// End-of-run registry snapshots say *where* a run ended up; scale and chaos
// work needs to see *how it got there* — queue depths building, waiter
// backlogs draining after a partition heals, memory growing with churn. The
// TimeSeriesRecorder samples registered metric registries (and derived
// health probes) at a fixed sim-time interval, keeping each series in a
// bounded ring with rollup windows so memory never grows with run length.
//
// Design constraints, in order:
//   1. Determinism. Sampling is driven entirely by the sim event queue
//      (never a wall clock); sources are walked in registration order and
//      instruments in the registry's lexicographic order, so two seeded
//      runs emit byte-identical series JSON.
//   2. Bounded memory. Each series keeps at most `capacity` raw points;
//      evicted points fold into rollup windows of `rollup_width` samples
//      (min/max/sum/n), themselves capped at `rollup_capacity` with an
//      explicit dropped count — never a silent truncation.
//   3. ~Zero cost when absent. The recorder is opt-in and external to the
//      instrumented code: nothing in core/space/net pays anything unless a
//      recorder is constructed and started.
//
// Health probes ride the same tick: a probe is a named sampler with a
// threshold; each sample is recorded as its own series and every breach is
// counted and reported through the probe's own breach hook — the oracle
// surface the chaos harness will assert on.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/quantile.h"
#include "transport/types.h"
#include "transport/timer.h"

namespace tiamat::obs {

struct SeriesOptions {
  /// Sim-time distance between samples.
  transport::Duration interval = 250 * transport::kMillisecond;
  /// Raw points kept per series before eviction into rollups.
  std::size_t capacity = 64;
  /// Evicted points folded per rollup window.
  std::size_t rollup_width = 8;
  /// Rollup windows kept per series; older ones are dropped (and counted).
  std::size_t rollup_capacity = 64;
};

/// A derived health signal evaluated every sample tick. A breach is a
/// sampled value >= threshold; `on_breach` (optional) lets the owner emit a
/// trace event / bump a counter at the breach site.
struct Probe {
  std::string name;
  double threshold = 0.0;
  std::function<double()> value;
  std::function<void(double value, transport::Time at)> on_breach;
};

class TimeSeriesRecorder {
 public:
  TimeSeriesRecorder(transport::TimerService& queue, SeriesOptions opts = {});
  ~TimeSeriesRecorder();

  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  /// Registers a source registry under `label` (one per instance, or the
  /// bench-global registry). `refresh`, when given, runs before each sample
  /// so the source can update derived gauges (e.g. space memory). The
  /// registry must outlive the recorder or be deregistered by stop() before
  /// destruction — the recorder only touches it inside a tick.
  void add_source(std::string label, const Registry* registry,
                  std::function<void()> refresh = nullptr);

  /// Attaches a probe to the source registered under `label` (sources
  /// without probes are fine; probes for unknown labels get their own
  /// source entry).
  void add_probe(const std::string& label, Probe p);

  /// Schedules the periodic tick (first sample one interval from now).
  ///
  /// Strand contract (concurrent backends): the recorder is confined to the
  /// strand its TimerService belongs to. start()/stop() — like every other
  /// mutating call — must run on that strand (post() there), because the
  /// tick re-arms by writing the same timer handle start() assigns: an
  /// off-strand start() races with its own first tick. On the sim this is
  /// moot (one thread).
  void start();
  /// Cancels the pending tick; sampling stops until start() again.
  void stop();
  bool running() const { return timer_ != transport::kInvalidEvent; }

  /// Takes one sample immediately (the timer path calls this too).
  void sample_now();

  std::uint64_t samples() const { return samples_; }
  std::uint64_t breaches() const { return breaches_; }

  /// Full series document (see file comment for the shape); deterministic
  /// byte-for-byte for seeded runs.
  json::Value to_json() const;

  /// Largest number of raw points currently held by any one series plus its
  /// rollup windows — the figure the memory-bound tests assert on.
  std::size_t max_series_points() const;

  const SeriesOptions& options() const { return opts_; }

 private:
  struct Point {
    std::uint64_t index;
    double value;
  };
  struct Rollup {
    std::uint64_t from;
    std::uint64_t to;
    double min;
    double max;
    double sum;
    std::uint64_t n;
  };
  struct SeriesData {
    bool integral = false;  ///< emit points as ints (counter values)
    std::deque<Point> points;
    std::deque<Rollup> rollups;
    std::uint64_t dropped = 0;      ///< rollup windows evicted entirely
    QuantileSketch prev;            ///< sketch series: last tick's snapshot
  };
  /// (kind, name, labels): ordered so emission order is deterministic.
  using SeriesKey = std::tuple<std::string, std::string, Labels>;
  struct ProbeState {
    Probe probe;
    SeriesData data;
    std::uint64_t breaches = 0;
  };
  struct Source {
    std::string label;
    const Registry* registry = nullptr;
    std::function<void()> refresh;
    std::map<SeriesKey, SeriesData> series;
    std::vector<ProbeState> probes;  ///< registration order
  };

  void append(SeriesData& d, std::uint64_t index, double v);
  void tick();
  Source& source_of(const std::string& label);

  static json::Value series_json(const SeriesData& d);

  transport::TimerService& queue_;
  SeriesOptions opts_;
  std::vector<Source> sources_;  ///< registration order
  std::deque<std::pair<std::uint64_t, transport::Time>> ticks_;
  std::uint64_t ticks_dropped_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t breaches_ = 0;
  transport::EventId timer_ = transport::kInvalidEvent;
};

}  // namespace tiamat::obs
