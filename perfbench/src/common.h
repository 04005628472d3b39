// Pieces shared by the workload implementations (not part of the runner's
// interface).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/instance.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "traced_transport.h"
#include "transport/sim_transport.h"
#include "workloads.h"

namespace perfbench {

/// Lease caps every benchmark instance runs with: the op and storage
/// saturation limits are lifted far beyond any run, so no op of a
/// workload is ever refused; TTLs are capped at `max_ttl`.
tiamat::lease::DefaultLeasePolicy::Caps lifted_caps(tiamat::transport::Duration max_ttl);

/// An instance on `tx` with lifted caps; traced runs inject TracedPolicy.
std::unique_ptr<tiamat::core::Instance> make_instance(
    tiamat::transport::Transport& tx, const std::string& name,
    tiamat::transport::Duration max_ttl, Tracer* tracer);

/// A deterministic sim world over the links the experiment benches use
/// (2 ms base latency, 100 us per KiB, 200 us jitter, no loss), optionally
/// behind the tracing decorator.
struct SimWorld {
  SimWorld(std::uint64_t seed, Tracer* tracer);
  tiamat::transport::Transport& tx() {
    return traced ? static_cast<tiamat::transport::Transport&>(*traced)
                  : static_cast<tiamat::transport::Transport&>(sim_tx);
  }

  tiamat::sim::EventQueue queue;
  tiamat::sim::Rng rng;
  tiamat::sim::Network net;
  tiamat::transport::SimTransport sim_tx;
  std::unique_ptr<TracedTransport> traced;
};

/// Registry counters summed over `instances` (ledger fields left zero).
LayerCounts registry_counts(const std::vector<tiamat::core::Instance*>& instances);
/// a - b for every cumulative field; lease_active_end keeps a's value.
LayerCounts delta(const LayerCounts& a, const LayerCounts& b);

/// Closes window `w` of `r` at wall time `t` (ns).
void close_window(TimedResult& r, int w, std::int64_t w_start, std::int64_t t,
                  double cpu_start, double cpu_end, std::uint64_t ops);

/// Starts the traced bookkeeping of a timed section (no-op untraced).
void start_recording(Tracer* tracer);
/// Stops it and stores the allocation counts since start_recording.
void stop_recording(Tracer* tracer, const AllocCounts& start, TimedResult& r);

}  // namespace perfbench
