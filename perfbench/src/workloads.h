// The benchmark workloads and the runner that turns their timed
// sections into the end-to-end and per-layer metrics.
//
// Every workload is a closed loop: a caller issues its next op when the
// previous one returns. A workload builds a fresh world in setup() (on the
// traced decorators when given a tracer) and then runs one timed section
// on it. Its inputs are a pure function of the seed, so two worlds built
// from one seed do identical work op for op.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/quantile.h"
#include "tracing.h"
#include "tuple/pattern.h"
#include "tuple/tuple.h"

namespace perfbench {

/// splitmix64: the workload generator's random stream.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// One slice of the timed section. The reported wall-clock metrics are
/// quartiles over windows, so a burst of steal time on the host spoils one
/// window instead of the whole run.
struct Window {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t ops = 0;
  // Wall time from issuing an op to its result. A workload records into
  // one sketch and keeps only these per window, so its memory does not
  // grow with run length.
  double p50_us = 0;
  double p99_us = 0;
};

/// Records one sample into `s`. The sketch allocates its buckets lazily;
/// that is the benchmark's memory, so traced runs do not count it.
void record(tiamat::obs::QuantileSketch& s, std::int64_t v);

/// The q-quantile of `s`, interpolated inside the bucket that holds it.
/// QuantileSketch::quantile reports that bucket's upper edge, which moves in
/// steps of up to ~3%: a figure read from a whole run of the deterministic
/// sim would read the same edge on every seed.
double interpolated_quantile(const tiamat::obs::QuantileSketch& s, double q);

/// Stores the window's latency quantiles (ns in `lat`) and clears `lat`.
void finish_latency(Window& w, tiamat::obs::QuantileSketch& lat);

/// Layer counters read from the instances' registries and the transport's
/// ledger, as deltas over the timed section.
struct LayerCounts {
  std::uint64_t lease_granted = 0;
  std::uint64_t lease_active_end = 0;  ///< absolute, at the section's end
  std::uint64_t waiters_candidates = 0;
  std::uint64_t match_candidates = 0;
  std::uint64_t match_lookups = 0;  ///< bucket probes + scan fallbacks
  std::uint64_t probes = 0;
  std::uint64_t refusals = 0;  ///< op.lease_refused + lease.refused_by_policy + out.refused
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

struct TimedResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< misses, timeouts, refusals
  bool correct = true;
  std::string error;  ///< first failed output check
  std::vector<Window> windows;
  double wall_s = 0;
  /// Latency in virtual time (Instance::now() on the sim), in microseconds.
  /// Empty when the sim clock does not advance during an op (local_pair).
  tiamat::obs::QuantileSketch transport_latency_us;
  /// Deterministic state after a fixed number of timed ops (sim only):
  /// equal between a traced and an untraced run of one seed.
  std::vector<std::int64_t> fingerprint;
  LayerCounts layers;
  AllocCounts allocs;
  /// Traced runs only.
  std::vector<std::vector<std::uint8_t>> captured;

  void fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

/// Inputs for the standalone-space replay: the resident set and the
/// workload's own out/inp pairs.
struct SpaceReplay {
  std::vector<tiamat::tuples::Tuple> resident;
  std::vector<std::pair<tiamat::tuples::Tuple, tiamat::tuples::Pattern>> ops;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Destroys any previous world and builds a fresh one, ready for its
  /// first timed op; traced when `tracer` is given.
  virtual void setup(Tracer* tracer) = 0;
  virtual TimedResult run(double seconds, int windows) = 0;
  virtual SpaceReplay space_replay() const = 0;
  /// Tears the world down.
  virtual void reset() = 0;
};

std::unique_ptr<Workload> make_local_pair(std::uint64_t seed);
std::unique_ptr<Workload> make_web_request(std::uint64_t seed);

/// Process CPU time (user + system, every thread), seconds.
double process_cpu_s();

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path for traced runs ("" = none)
};

/// Runs one invocation; returns false for an unknown workload.
bool run_benchmark(const RunOptions& opts, Report& report);

}  // namespace perfbench
