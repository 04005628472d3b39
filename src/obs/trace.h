// Span-style operation tracing.
//
// Every record links one step of an operation's lifecycle to the (origin
// node, op id) pair that identifies the operation globally, so traces
// captured at different instances can be joined into one causal chain:
//
//   op issued -> lease granted -> per-peer request fan-out -> per-peer
//   response -> exactly one accept (+ a reinsert at every other peer that
//   tentatively removed a match) -> confirm / expiry.
//
// The Tracer feeds a pluggable sink; the bounded history of recent events
// is the always-on FlightRecorder's (obs/flight_recorder.h). Tracing is off
// by default; a disabled tracer costs one predictable branch per
// instrumentation point (the acceptance bar for the null path is <5%
// overhead on the hot benches).

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/cells.h"
#include "obs/json.h"
#include "transport/thread_annotations.h"
#include "transport/types.h"

namespace tiamat::obs {

enum class EventKind : std::uint8_t {
  // Originator side of a logical-space operation.
  kOpIssued = 0,     ///< rd/rdp/in/inp entered; detail = OpKind
  kLeaseGranted,     ///< negotiation succeeded; detail = lease id
  kLeaseRefused,     ///< negotiation failed; operation dead on arrival
  kPeerRequest,      ///< OpRequest sent to `peer`
  kPeerResponse,     ///< OpResponse from `peer`; detail = found<<1 | serving
  kPeerTimeout,      ///< `peer` never answered within the response timeout
  kProbe,            ///< multicast probe fired to widen the fan-out
  kAccept,           ///< the winning tuple; peer = source (self if local)
  kReinsert,         ///< Release sent: `peer` must put its match back
  kCancel,           ///< CancelOp sent to `peer` on completion/expiry
  kConfirm,          ///< Confirm sent to the winning `peer`
  kOpNoMatch,        ///< non-blocking op concluded with nothing
  kOpExpired,        ///< lease ended before a match (blocking op)
  // Serving side (events recorded at the remote instance; origin/op_id
  // still identify the originator's operation).
  kServeStart,       ///< request admitted under a local lease
  kServeRefused,     ///< local lease policy declined to help
  kServeMatch,       ///< match sent back; destructive ops hold it tentative
  kServeReinsert,    ///< tentative tuple placed back into the local space
  kServeConfirm,     ///< tentative removal made permanent
  // Continuous telemetry (obs/series.h).
  kProbeBreach,      ///< health probe crossed its threshold; detail = value
  // Endpoint drop paths (net::Endpoint).
  kDecodeFailure,    ///< undecodable or malformed input; peer = sender
  // Chaos harness (src/chaos): one record per executed fault-schedule
  // entry, so flight-recorder tails show the injected hostility inline
  // with the protocol's causal history. detail = chaos::EventKind.
  kFaultInjected,
};

const char* to_string(EventKind k);

/// Inverse of to_string; nullopt for unknown names (forward compatibility:
/// analysis tools skip records they do not understand).
std::optional<EventKind> event_kind_from_string(std::string_view name);

struct TraceEvent {
  transport::Time at = 0;             ///< virtual time of the step
  transport::NodeId node = transport::kNoNode;    ///< instance that recorded the event
  transport::NodeId origin = transport::kNoNode;  ///< operation's originating instance
  std::uint64_t op_id = 0;      ///< originator-scoped operation id
  EventKind kind{};
  transport::NodeId peer = transport::kNoNode;    ///< counterparty, when applicable
  std::int64_t detail = 0;      ///< kind-specific extra (see EventKind)

  json::Value to_json() const;

  /// Inverse of to_json (JSONL trace dumps). Rejects records missing a
  /// required field or naming an unknown event kind.
  static std::optional<TraceEvent> from_json(const json::Value& v);
};

/// Receives every recorded event. Implementations must not re-enter the
/// tracer.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& e) = 0;
};

/// Test sink: keeps everything.
class MemorySink : public TraceSink {
 public:
  void on_event(const TraceEvent& e) override { events_.push_back(e); }
  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// Streams one compact JSON object per event (JSONL), suitable for `jq` and
/// for `tiamat-inspect`. The file handle lives behind a pimpl so that the
/// many includers of this header do not all pay for <fstream>.
class JsonlSink : public TraceSink {
 public:
  explicit JsonlSink(const std::string& path);
  ~JsonlSink() override;
  void on_event(const TraceEvent& e) override;
  bool ok() const;

 private:
  struct Out;
  std::unique_ptr<Out> out_;
};

class TraceRing;

/// Per-instance event feed: hands every recorded event to an optional sink.
/// Disabled (the default) it records nothing.
///
/// Two collection modes (DESIGN.md §13):
///   - Direct (the default, and the only mode the sim backend ever uses):
///     record() calls the sink inline on the calling strand.
///   - Thread rings (set_thread_rings(true), for multi-threaded transport
///     backends): each recording thread registers lazily and gets a
///     private fixed-capacity SPSC ring (obs/trace_ring.h); record() is a
///     lock-free push stamped with a tracer-wide sequence number, and the
///     sink is only called by drain(), which merges every thread ring in
///     (at, seq) order. The sink therefore sees events from exactly one
///     thread at a time — that is the fix for the shared-sink race under
///     LoopbackTransport.
///
/// Mode and enablement are configuration: flip them before concurrent
/// recording starts (thread creation / strand hand-off publishes them).
/// Destroying a tracer while another thread is still recording into it is
/// a use-after-free in either mode, same as any other member.
class Tracer {
 public:
  /// Slots in each recording thread's ring; a full ring drops and counts.
  static constexpr std::size_t kThreadRingCapacity = 512;

  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Installing a sink implies enabling.
  void set_sink(std::shared_ptr<TraceSink> sink) {
    sink_ = std::move(sink);
    if (sink_) enabled_ = true;
  }

  /// Switches per-thread SPSC collection on or off. Call on the owning
  /// strand with no concurrent recorders; buffered events survive (they
  /// drain on the next drain() call).
  void set_thread_rings(bool on) { thread_rings_ = on; }
  bool thread_rings() const { return thread_rings_; }

  /// Registers the calling thread (idempotent): allocates its private ring
  /// on first use. record() does this lazily; explicit registration just
  /// front-loads the one-time lock acquisition.
  void register_current_thread() TIAMAT_EXCLUDES(mu_);

  /// Merges every thread ring into the sink in (at, seq) order and returns
  /// the number of events moved. Safe to call while producers are still
  /// recording (each ring is SPSC; the caller is the one consumer) —
  /// concurrent pushes simply wait for the next drain.
  std::size_t drain() TIAMAT_EXCLUDES(mu_);

  /// Records a pre-built event as-is (the caller stamps every field,
  /// including `node`); shared path with the always-on FlightRecorder.
  void record(const TraceEvent& e);

  /// Thread-ring accounting. Drops are rejected at push time and counted
  /// separately, so the conservation law the chaos oracle checks is
  /// `drained == pushed` once producers are quiet and a final drain ran:
  /// every accepted event reaches the sink exactly once, and every loss is
  /// on the dropped ledger.
  std::uint64_t ring_pushed() const TIAMAT_EXCLUDES(mu_);
  std::uint64_t ring_dropped() const TIAMAT_EXCLUDES(mu_);
  std::uint64_t ring_drained() const { return ring_drained_.load(); }

 private:
  TraceRing* thread_ring() TIAMAT_EXCLUDES(mu_);

  bool enabled_ = false;
  bool thread_rings_ = false;     ///< collection mode (config-time)
  std::shared_ptr<TraceSink> sink_;
  AtomicU64 seq_;                 ///< record-order stamp (merge tiebreak)
  AtomicU64 ring_drained_;        ///< events moved out of thread rings
  mutable transport::Mutex mu_;
  std::vector<std::unique_ptr<TraceRing>> rings_ TIAMAT_GUARDED_BY(mu_);
};

}  // namespace tiamat::obs
