// A Tiamat instance (§3.1, Figure 2): lease manager + local tuple space +
// communications manager, presenting the *opportunistic logical tuple
// space* to applications.
//
// Public-API summary
// ------------------
//   Instance node(transport);                     // joins the environment
//   node.out({"greeting", "hello"});              // local space (default)
//   node.rd(Pattern{"greeting", any_string()},    // logical space: local +
//           [](auto r){ ... });                   //   every visible instance
//   node.in_at(handle, pattern, cb);              // directed at one space
//   node.out_to_origin(result, policy);           // §2.4 reply-to-source
//
// All read/take operations are continuation-style (the transport owns the
// clock); every operation is leased — a refused lease fails the operation
// before any other work happens (Figure 2's flow).

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/adaptation.h"
#include "core/config.h"
#include "core/monitor.h"
#include "core/routing.h"
#include "lease/manager.h"
#include "net/discovery.h"
#include "net/endpoint.h"
#include "net/responder_cache.h"
#include "net/rpc.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "transport/transport.h"
#include "space/eval.h"
#include "space/registry.h"
#include "space/handle.h"
#include "space/local_space.h"

namespace tiamat::obs {
class TimeSeriesRecorder;  // obs/series.h; only register_telemetry needs it
}

namespace tiamat::core {

using tuples::Pattern;
using tuples::Tuple;

/// Outcome of out/eval entry points (synchronous part).
enum class Status : std::uint8_t {
  kOk = 0,
  kLeaseRefused = 1,   ///< negotiation failed: no work performed (Fig. 2)
  kRefusedBySpace = 2, ///< lease byte budget cannot cover the tuple
  kUnavailable = 3,    ///< directed op abandoned (UnavailablePolicy::kAbandon)
  kQueued = 4,         ///< directed op handed to store-and-forward routing
};

const char* to_string(Status s);

/// A successful read/take: the tuple plus the node it came from, which is
/// what out_to_origin (§2.4) consumes.
struct ReadResult {
  Tuple tuple;
  transport::NodeId source = transport::kNoNode;
};

/// Invoked exactly once per read/take operation: a result, or nullopt when
/// the operation's lease expired / no match was reachable.
using ReadCallback = std::function<void(std::optional<ReadResult>)>;

class Instance {
 public:
  using Message = net::Message;
  /// Creates the instance on a fresh transport node. A null `policy` gets
  /// the stock DefaultLeasePolicy with cfg.lease_caps.
  Instance(transport::Transport& tx, Config cfg = {},
           std::unique_ptr<lease::LeasePolicy> policy = nullptr,
           transport::NodeOptions pos = {});

  ~Instance();

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  // ---- Identity -----------------------------------------------------------

  transport::NodeId node() const { return node_; }
  const std::string& name() const { return cfg_.name; }
  space::SpaceHandle handle() const;

  // ---- out / eval (local space by default, §2.2) -------------------------

  /// Places `t` in the local space under a negotiated storage lease (the
  /// tuple's expiry is the lease's TTL; its footprint is charged against
  /// the byte budget — "the local space may be refusing to accept the tuple
  /// due to resource shortages").
  Status out(Tuple t);
  Status out(Tuple t, const lease::LeaseRequester& requester);

  /// Starts an active tuple; the resultant tuple appears in the local space
  /// when the computation completes, unless the lease expires first.
  Status eval(space::ActiveTuple at);
  Status eval(space::ActiveTuple at, const lease::LeaseRequester& requester);

  // ---- Logical-space read/take operations (§2.2) --------------------------

  /// Each returns false — without invoking `cb` — when the lease was
  /// refused; otherwise `cb` fires exactly once, possibly synchronously.
  bool rd(const Pattern& p, ReadCallback cb);
  bool rd(const Pattern& p, ReadCallback cb,
          const lease::LeaseRequester& requester);
  bool rdp(const Pattern& p, ReadCallback cb);
  bool rdp(const Pattern& p, ReadCallback cb,
           const lease::LeaseRequester& requester);
  bool in(const Pattern& p, ReadCallback cb);
  bool in(const Pattern& p, ReadCallback cb,
          const lease::LeaseRequester& requester);
  bool inp(const Pattern& p, ReadCallback cb);
  bool inp(const Pattern& p, ReadCallback cb,
           const lease::LeaseRequester& requester);

  // ---- Direct remote operations (§2.4) ------------------------------------

  /// out/eval directed at a specific space. `policy` governs the
  /// unreachable-destination case.
  Status out_at(const space::SpaceHandle& dest, Tuple t,
                UnavailablePolicy policy = UnavailablePolicy::kAbandon);
  Status out_at(const space::SpaceHandle& dest, Tuple t,
                const lease::LeaseRequester& requester,
                UnavailablePolicy policy);

  /// "These take in a tuple which was returned as a result of a prior in,
  /// inp, rd or rdp operation. Tiamat will then attempt to satisfy the
  /// operation at the remote instance where the given tuple was obtained."
  Status out_to_origin(const ReadResult& from, Tuple t,
                       UnavailablePolicy policy = UnavailablePolicy::kRoute);
  Status out_to_origin(const ReadResult& from, Tuple t,
                       const lease::LeaseRequester& requester,
                       UnavailablePolicy policy);

  /// eval directed at a specific space: the *named* computation (shared
  /// via ComputationRegistry — see space/registry.h for why names replace
  /// shipped code in C++) runs at the destination, consuming its leased
  /// resources; the resultant tuple appears in the destination's space.
  /// `done(accepted)` reports whether the destination took the job.
  Status eval_at(const space::SpaceHandle& dest, const std::string& name,
                 Tuple args, std::function<void(bool)> done = nullptr);

  /// Read/take directed at one specific remote space (no propagation).
  bool rd_at(const space::SpaceHandle& dest, const Pattern& p, ReadCallback cb);
  bool rdp_at(const space::SpaceHandle& dest, const Pattern& p,
              ReadCallback cb);
  bool in_at(const space::SpaceHandle& dest, const Pattern& p, ReadCallback cb);
  bool inp_at(const space::SpaceHandle& dest, const Pattern& p,
              ReadCallback cb);
  bool op_at(OpKind kind, const space::SpaceHandle& dest, const Pattern& p,
             ReadCallback cb, const lease::LeaseRequester& requester);

  // ---- Handle discovery (§2.4) ---------------------------------------------

  /// Probes for visible instances and collects their space-handle tuples
  /// (including this instance's own).
  void enumerate_handles(
      std::function<void(std::vector<space::SpaceHandle>)> cb);

  // ---- Introspection --------------------------------------------------------

  /// Named computations this instance can run for itself and for peers.
  space::ComputationRegistry& computations() { return registry_; }

  space::LocalTupleSpace& local_space() { return space_; }
  const space::LocalTupleSpace& local_space() const { return space_; }
  lease::LeaseManager& leases() { return leases_; }
  net::ResponderCache& responders() { return cache_; }
  net::Discovery& discovery() { return discovery_; }
  net::Endpoint& endpoint() { return endpoint_; }
  /// The transport this instance is attached to (backend-agnostic).
  transport::Transport& transport() { return tx_; }
  /// This node's timer strand: callbacks scheduled here run serialized with
  /// message delivery for the node (the simulator's event queue, or the
  /// node's owner worker under the loopback backend).
  transport::TimerService& timers() { return timers_; }
  space::EvalEngine& evals() { return evals_; }
  Monitor& monitor() { return monitor_; }
  /// The instance's metric registry (owned by the Monitor): every counter,
  /// gauge and sketch this instance emits, snapshot-able to JSON.
  obs::Registry& metrics() { return monitor_.registry(); }
  /// Per-instance operation tracer: off until a sink is installed (or it
  /// is enabled) through this handle.
  obs::Tracer& tracer() { return tracer_; }

  /// Always-on bounded tail of recent trace events; dumped by audit traps.
  const obs::FlightRecorder& flight_recorder() const { return flight_; }
  DeferredRouter& router() { return router_; }
  const Config& config() const { return cfg_; }
  transport::Time now() const { return tx_.now(); }

  /// Number of logical-space operations currently outstanding.
  std::size_t open_ops() const { return ops_.size(); }
  /// Remote requests this instance is currently serving.
  std::size_t serving_count() const { return serving_.size(); }
  /// Responder replies still outstanding: contacted responders that have
  /// not answered any open op, plus Confirms awaiting acknowledgement. The
  /// pending-ack health probe samples this.
  std::size_t pending_ack_count() const {
    std::size_t n = confirms_.size();
    for (const auto& [id, op] : ops_) {
      (void)id;
      n += op.awaiting_first.size();
    }
    return n;
  }

  /// Registers this instance with a telemetry recorder: its metric registry
  /// as a source (label = config().name, refreshing the space memory gauges
  /// each tick) plus the health-probe catalog — waiter backlog, pending-ack
  /// depth, per-tick lease-expiry rate and windowed match-latency p99, with
  /// thresholds from config().probe_thresholds. Breaches emit a
  /// kProbeBreach trace event and bump "probe.breaches". The instance must
  /// outlive the recorder (or the recorder must be stopped first).
  ///
  /// Strand contract (concurrent backends): the recorder must tick on THIS
  /// instance's strand — i.e. be built over tx.timers(node()) — because the
  /// probe lambdas and the memory-gauge refresh read strand-confined space
  /// and protocol state. Registries themselves are striped and safe to
  /// sample from any strand; it is the probe reads that are bound here.
  void register_telemetry(obs::TimeSeriesRecorder& rec);

 private:
  // ---- Originator side of the logical-space protocol (logical_space.cc) --
  struct LogicalOp {
    std::uint64_t id = 0;
    OpKind kind{};
    Pattern pattern;
    lease::LeaseHandle lease;
    ReadCallback cb;
    transport::Time started_at = 0;
    space::WaiterId local_waiter = space::kNoWaiter;
    std::set<transport::NodeId> contacted;        ///< OpRequest sent
    std::set<transport::NodeId> awaiting_first;   ///< no reply yet (ack timeout)
    std::set<transport::NodeId> exhausted;        ///< replied not-serving / no match
    std::vector<transport::NodeId> contact_queue; ///< responders still to try
    // Ordered: op teardown cancels these in node-id order (determinism).
    std::map<transport::NodeId, transport::EventId> ack_timers;
    transport::EventId repoll_timer = transport::kInvalidEvent;
    bool probing = false;
    bool probed_once = false;
    bool directed = false;  ///< §2.4 single-target op: no propagation
    bool done = false;
  };

  bool start_op(OpKind kind, const Pattern& p, ReadCallback cb,
                const lease::LeaseRequester& requester);
  /// Blocking kinds' local step: a present match finishes the op, else a
  /// local waiter is armed. (start_op searches for inp/rdp itself.)
  void op_try_local(LogicalOp& op);
  void op_advance(std::uint64_t op_id);
  void op_contact(LogicalOp& op, transport::NodeId target);
  void op_probe(std::uint64_t op_id);
  void op_schedule_repoll(LogicalOp& op);
  void op_on_response(std::uint64_t op_id, transport::NodeId from, const Message& m);
  /// Tells `to` to put back the tuple it holds tentatively for `op_id`: a
  /// match that lost the race (§3.1.3) or arrived after the op finished.
  void send_release(transport::NodeId to, std::uint64_t op_id);
  void op_ack_timeout(std::uint64_t op_id, transport::NodeId target);
  void op_finish(std::uint64_t op_id, std::optional<ReadResult> result);
  LogicalOp* find_op(std::uint64_t op_id);
  /// Decides whether a non-blocking op has run out of places to look.
  void op_maybe_conclude_nonblocking(LogicalOp& op);

  // ---- Serving side (remote_ops.cc) ---------------------------------------
  struct Serving {
    std::uint64_t op_id = 0;         ///< originator's op id
    transport::NodeId origin = transport::kNoNode;
    OpKind kind{};
    lease::LeaseHandle lease;
    space::WaiterId waiter = space::kNoWaiter;
    tuples::TupleId tentative = tuples::kNoTuple;
    transport::EventId hold_timer = transport::kInvalidEvent;
    tuples::CompiledPattern pattern;  ///< for re-arming blocking in (lost reply)
    transport::Time deadline = 0;   ///< effective waiter deadline
  };

  /// (Re-)arms a blocking destructive waiter for a served `in` request;
  /// also the retransmission path when a "found" reply was lost.
  void arm_serving_in(std::uint64_t key);

  void install_handlers();
  void serve_op_request(transport::NodeId from, const Message& m);
  void serve_cancel(transport::NodeId from, const Message& m);
  void serve_confirm(transport::NodeId from, const Message& m);
  void serve_release(transport::NodeId from, const Message& m);
  void serve_remote_out(transport::NodeId from, const Message& m);
  void serve_remote_eval(transport::NodeId from, const Message& m);
  void serving_drop(std::uint64_t key, bool release_tentative);
  /// Puts a tentatively held tuple back (§2.2: another instance won, or the
  /// originator vanished), counting and tracing the reinsert. A tuple whose
  /// storage lease ended during the hold is gone: nothing is counted.
  void serving_reinsert(tuples::TupleId id, transport::NodeId origin,
                        std::uint64_t op_id);
  /// Serving table key: origin node + their op id (op ids are per-instance).
  static std::uint64_t serving_key(transport::NodeId origin, std::uint64_t op_id);

  /// The lease manager's end hook: reclaims what an expired or revoked
  /// lease covered (§2.5). A release needs nothing: its holder let go.
  void lease_ended(lease::Owner owner, lease::LeaseState state);

  Status do_out(Tuple t, const lease::LeaseRequester& requester);
  Status do_eval(space::ActiveTuple at, const lease::LeaseRequester& requester);
  Status do_directed_out(transport::NodeId dest, Tuple t,
                         const lease::LeaseRequester& requester,
                         UnavailablePolicy policy);
  void send_remote_out(transport::NodeId dest, const Tuple& t, std::uint64_t route_id,
                       transport::Duration ttl);

  /// Records one step of an operation's causal chain; `origin` + `op_id`
  /// identify the operation globally (also across instances, for served
  /// requests). The flight recorder always keeps the tail (bounded ring, a
  /// handful of stores per event); the full tracer runs only when enabled.
  void trace(obs::EventKind kind, transport::NodeId origin, std::uint64_t op_id,
             transport::NodeId peer = transport::kNoNode, std::int64_t detail = 0) {
#if defined(TIAMAT_OBS_OFF)
    // Overhead-gate baseline (scripts/obs_overhead_gate.sh): the whole
    // instrumentation point compiles away, clock read included.
    (void)kind;
    (void)origin;
    (void)op_id;
    (void)peer;
    (void)detail;
#else
    // now_coarse(): exact virtual time on the sim (byte-identical runs),
    // the cached task-start stamp on concurrent backends — a trace burst
    // of ~10 events per op costs zero hardware-clock reads there.
    const obs::TraceEvent e{tx_.now_coarse(), node_, origin, op_id,
                            kind,             peer,  detail};
    flight_.record(e);
    if (tracer_.enabled()) tracer_.record(e);
#endif
  }

  transport::Transport& tx_;
  Config cfg_;
  AdaptiveLeasePolicy* adaptive_ = nullptr;  ///< set iff the policy adapts
  transport::NodeId node_;
  transport::TimerService& timers_;  ///< tx_.timers(node_): this node's strand
  obs::Tracer tracer_;
  obs::FlightRecorder flight_;
  transport::Rng rng_;
  net::Endpoint endpoint_;
  lease::LeaseManager leases_;
  space::LocalTupleSpace space_;
  space::EvalEngine evals_;
  net::ResponderCache cache_;
  net::Discovery discovery_;
  net::Correlator correlator_;
  DeferredRouter router_;
  space::ComputationRegistry registry_;
  Monitor monitor_;

  std::map<std::uint64_t, LogicalOp> ops_;
  std::map<std::uint64_t, Serving> serving_;

  /// How long to wait for a responder's first reply to an OpRequest before
  /// declaring it unresponsive and dropping it from the responder list; also
  /// the Confirm retransmission period, and a quarter of a remote eval's
  /// acceptance deadline.
  static constexpr transport::Duration kResponseTimeout =
      transport::milliseconds(60);

  /// Confirm messages are retransmitted until acknowledged: a lost Confirm
  /// would otherwise make the serving side put an already-delivered tuple
  /// back (duplicate delivery).
  struct PendingConfirm {
    transport::NodeId winner = transport::kNoNode;
    int tries_left = 6;
    transport::EventId timer = transport::kInvalidEvent;
  };
  std::map<std::uint64_t, PendingConfirm> confirms_;  // op_id ->
  void send_confirm(std::uint64_t op_id);
};

// ---- Synchronous conveniences (block until resolution) --------------------

/// Waits on the transport until the operation completes; returns its result.
/// Steps the event queue under the sim backend, parks the calling thread
/// under loopback. Only for tests/examples — real applications stay
/// asynchronous.
std::optional<ReadResult> run_rd(Instance& i, const Pattern& p);
std::optional<ReadResult> run_rdp(Instance& i, const Pattern& p);
std::optional<ReadResult> run_in(Instance& i, const Pattern& p);
std::optional<ReadResult> run_inp(Instance& i, const Pattern& p);

}  // namespace tiamat::core
