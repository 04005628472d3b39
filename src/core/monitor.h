// Run-time-support monitoring (§5.2/§6 extension).
//
// The Monitor owns the instance's obs::Registry — the single record of
// every count the instance keeps. Counters keeps the familiar field-access
// API (++monitor.counters().x, monitor.counters().x == 1u) but every field
// is a reference into the registry, so the same numbers appear in JSON
// snapshots with no second bookkeeping path. The lease manager, the local
// space's matching engine and the endpoint count into this registry through
// their bind_metrics() and keep no copy of their own: read their lease.*,
// match.*, waiters.* and net.* counters here. Per-operation latency
// goes into log-bucketed quantile sketches (aggregate + per-op-kind):
// bounded memory on the hot path, and p50/p90/p99 queries with a fixed
// relative-error bound instead of the old coarse fixed-bucket interpolation.
// The per-kind sketch is looked up in the registry once, on the first op of
// that kind, and kept by pointer: a finished op pays no registry lock,
// label allocation or map walk.

#pragma once

#include <array>
#include <cstdint>

#include "core/config.h"
#include "obs/metrics.h"
#include "transport/types.h"

namespace tiamat::core {

class Monitor {
 public:
  struct Counters {
    explicit Counters(obs::Registry& r)
        : ops_started(r.counter("op.started")),
          ops_lease_refused(r.counter("op.lease_refused")),
          satisfied_local(r.counter("op.satisfied_local")),
          satisfied_remote(r.counter("op.satisfied_remote")),
          no_match(r.counter("op.no_match")),
          lease_expired(r.counter("op.lease_expired")),
          cancelled(r.counter("op.cancels_sent")),
          remote_requests_served(r.counter("serve.requests")),
          remote_serving_refused(r.counter("serve.refused")),
          outs_local(r.counter("out.local")),
          outs_refused(r.counter("out.refused")),
          evals_started(r.counter("eval.started")),
          remote_outs_delivered(r.counter("remote_out.delivered")),
          remote_outs_routed(r.counter("remote_out.routed")),
          remote_outs_abandoned(r.counter("remote_out.abandoned")),
          probes_triggered(r.counter("op.probes")),
          rpc_timeouts(r.counter("rpc.timeouts")),
          tuples_reinserted(r.counter("serve.reinserted")) {}

    obs::Counter& ops_started;
    obs::Counter& ops_lease_refused;
    obs::Counter& satisfied_local;
    obs::Counter& satisfied_remote;
    obs::Counter& no_match;       ///< non-blocking miss everywhere
    obs::Counter& lease_expired;  ///< blocking op returned nothing
    obs::Counter& cancelled;  ///< CancelOp notices sent to armed responders
    obs::Counter& remote_requests_served;
    obs::Counter& remote_serving_refused;  ///< our policy refused to help
    obs::Counter& outs_local;
    obs::Counter& outs_refused;
    obs::Counter& evals_started;
    obs::Counter& remote_outs_delivered;
    obs::Counter& remote_outs_routed;  ///< deferred via store-and-forward
    obs::Counter& remote_outs_abandoned;
    obs::Counter& probes_triggered;
    obs::Counter& rpc_timeouts;        ///< responders that never answered
    obs::Counter& tuples_reinserted;   ///< tentative removals put back (§2.2)
  };

  Monitor()
      : counters_(registry_),
        op_latency_(registry_.sketch("op.latency_us")) {}

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Records into the aggregate sketch and into `kind`'s sketch
  /// (op.latency_us{op=rd|rdp|in|inp}), which is registered on first use.
  void op_finished(OpKind kind, transport::Duration latency) {
#if defined(TIAMAT_OBS_OFF)
    (void)kind;  // overhead-gate baseline: latency sketches compiled out
    (void)latency;
#else
    const auto v = static_cast<double>(latency);
    op_latency_.observe(v);
    obs::QuantileSketch*& of_kind =
        op_kind_latency_[static_cast<std::size_t>(kind)];
    if (of_kind == nullptr) {
      of_kind = &registry_.sketch("op.latency_us", {{"op", to_string(kind)}});
    }
    of_kind->observe(v);
#endif
  }

  /// Per-peer reliability accounting (ack timeouts by responder).
  void peer_timeout(std::uint32_t peer) {
    ++counters_.rpc_timeouts;
    ++registry_.counter("rpc.timeouts", {{"peer", std::to_string(peer)}});
  }

  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }
  obs::QuantileSketch& op_latency() { return op_latency_; }
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }

 private:
  obs::Registry registry_;
  Counters counters_;
  obs::QuantileSketch& op_latency_;
  std::array<obs::QuantileSketch*, 4> op_kind_latency_{};  ///< by OpKind
};

}  // namespace tiamat::core
