// Always-on flight recorder: a bounded last-K-events ring per instance, and
// the codebase's one ring of recent events.
//
// The Tracer (obs/trace.h) is an opt-in feed to a sink — off by default so
// the hot path stays within the <5% overhead budget — and keeps no history.
// The flight recorder is the complement: it is ALWAYS recording, bounded to
// a small fixed K, and exists so that when something traps (an src/audit
// invariant violation, a test death path) the diagnostic comes with the
// recent cross-instance causal history attached — the last thing every
// instance was doing, not just the broken structure.
//
// Cost model: one TraceEvent copy into a pre-sized ring per instrumentation
// point. The ring is written only by its owning instance's strand (plain
// stores — the sim serializes everything, LoopbackTransport serializes per
// node), so record() needs no synchronization; there is nothing cheaper
// that still keeps history. Building with TIAMAT_OBS_OFF compiles record()
// down to nothing — the baseline the instrumentation-overhead gate
// (scripts/obs_overhead_gate.sh) measures against.
//
// Every live recorder registers itself in a process-wide table guarded by a
// mutex (instances on different loopback strands construct and destroy
// concurrently); the first registration installs an audit::ContextProvider
// so that audit::fail() dumps every recorder's tail alongside the invariant
// diagnostic with no further wiring. Dump order is (node id, registration
// sequence) — stable and deterministic across runs.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "transport/types.h"

namespace tiamat::obs {

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit FlightRecorder(transport::NodeId node,
                          std::size_t capacity = kDefaultCapacity);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Unconditional ring store (the whole point: no enabled check).
  void record(const TraceEvent& e) {
#if defined(TIAMAT_OBS_OFF)
    (void)e;  // overhead-gate baseline: instrumentation compiled out
#else
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
    } else {
      ring_[next_] = e;
    }
    // Compare-and-reset, not `% capacity_`: the modulo is a runtime integer
    // division on this hot path (capacity is not a compile-time constant).
    if (++next_ == capacity_) next_ = 0;
    ++recorded_;
#endif
  }

  /// Ring contents, oldest first.
  std::vector<TraceEvent> tail() const;

  transport::NodeId node() const { return node_; }
  std::uint64_t recorded() const { return recorded_; }
  std::size_t capacity() const { return capacity_; }

  /// Formatted tails of every live recorder, ordered by (node,
  /// registration); empty string when nothing was recorded. This is what
  /// the audit trap appends to its report.
  static std::string dump_all();

  /// Number of currently registered recorders (tests).
  static std::size_t live_count();

 private:
  transport::NodeId node_;
  std::size_t capacity_;
  std::uint64_t seq_;             ///< registration order (dump tiebreak)
  std::vector<TraceEvent> ring_;  ///< grows to capacity_, then wraps
  std::size_t next_ = 0;
  std::uint64_t recorded_ = 0;
};

}  // namespace tiamat::obs
