// Transport scheduler telemetry -> metrics bridge.
//
// LoopbackTransport keeps its scheduler health in cheap relaxed-atomic
// cells (queue depth, strand lag, callback busy time, lock contention,
// timer cancels); this exporter folds a sched_stats() snapshot
// into an obs::Registry under the transport.sched.* catalog names, so the
// numbers flow through the same machinery as every other metric — registry
// snapshots, TimeSeriesRecorder sampling, `tiamat-inspect sched`.
//
// The layering matters: src/transport/ must not know about src/obs/ (the
// linter's layer rule), so the transport only exposes a plain-struct
// snapshot and this file — on the obs side, where obs -> transport includes
// are legal — does the minting. Window-shaped series (average strand lag,
// utilization) are computed from the delta between consecutive update()
// calls, which is exactly one recorder tick when update() is installed as
// the source's refresh hook.

#pragma once

#include "obs/metrics.h"
#include "transport/loopback_transport.h"

namespace tiamat::obs {

/// Exports one LoopbackTransport's scheduler telemetry into `registry`.
/// Both must outlive the exporter. Not thread-safe: call update() from one
/// thread at a time (the recorder tick, or the bench main loop).
class SchedExporter {
 public:
  SchedExporter(Registry& registry, const transport::LoopbackTransport& t)
      : registry_(registry), transport_(t) {}

  SchedExporter(const SchedExporter&) = delete;
  SchedExporter& operator=(const SchedExporter&) = delete;

  /// Takes a sched_stats() snapshot and folds it into the registry:
  /// counters advance by the delta since the previous update(), gauges are
  /// set to the snapshot (or window-derived) value.
  void update();

 private:
  Registry& registry_;
  const transport::LoopbackTransport& transport_;
  transport::LoopbackTransport::SchedStats prev_;
};

}  // namespace tiamat::obs
