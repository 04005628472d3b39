// LIME baseline (§4.4): transiently shared tuple spaces with *global
// consistency* and *atomic engagement*, after Picco/Murphy/Roman.
//
// "Unlike Tiamat, LIME does not do this on an opportunistic basis, rather it
// tries to ensure global consistency across hosts ... LIME also requires the
// space engagement and disengagement operations to be atomic across all
// hosts in the federated space. This means that other operations cannot
// proceed while hosts are engaging/disengaging."
//
// The model here keeps exactly those two properties: every host maintains a
// consistent replica, mutations are sequenced through a coordinator with an
// all-member acknowledgement round (global consistency), and joins/leaves
// run a pause-the-world barrier with full state transfer to the newcomer
// (atomic engagement). E4 measures how both costs grow with host count —
// the paper reports the real prototype "cannot function with more than six
// hosts forming a single federated space".

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "baselines/common.h"
#include "net/endpoint.h"
#include "tuple/index.h"
#include "tuple/waiter_index.h"

namespace tiamat::baselines {

enum LimeMsg : std::uint16_t {
  kLimeJoinReq = net::kLimeBase + 1,    ///< newcomer -> group
  kLimePause = net::kLimeBase + 2,      ///< coordinator -> members
  kLimePauseAck = net::kLimeBase + 3,
  kLimeState = net::kLimeBase + 4,      ///< member state -> newcomer
  kLimeEngageEnd = net::kLimeBase + 5,  ///< coordinator -> everyone (+list)
  kLimeLeave = net::kLimeBase + 6,
  kLimeOpFwd = net::kLimeBase + 7,      ///< originator -> coordinator
  kLimeApply = net::kLimeBase + 8,      ///< coordinator -> members (seq)
  kLimeApplyAck = net::kLimeBase + 9,
  kLimeOpResult = net::kLimeBase + 10,  ///< coordinator -> originator
};

class LimeHost {
 public:
  struct Stats {
    std::uint64_t ops_completed = 0;
    std::uint64_t ops_failed = 0;
    std::uint64_t ops_stalled_by_engagement = 0;
    std::uint64_t engagements = 0;
    transport::Duration total_engagement_stall = 0;  ///< summed pause time
    std::uint64_t state_tuples_sent = 0;
  };

  /// The first host of a federation constructs with `first=true`; later
  /// hosts call `engage()` to join.
  LimeHost(transport::Transport& net, transport::GroupId federation, bool first,
           transport::NodeOptions pos = {});

  transport::NodeId node() const { return endpoint_.node(); }
  bool engaged() const { return engaged_; }
  bool engagement_in_progress() const { return pausing_ || joining_; }
  std::size_t members() const { return members_.size(); }
  std::size_t replica_tuples() const { return replica_.size(); }

  /// Joins the federated space (atomic engagement). `done(success)` fires
  /// when the barrier completes.
  void engage(std::function<void(bool)> done = nullptr);

  /// Leaves the federation (atomic disengagement barrier, without state
  /// transfer).
  void disengage();

  // ---- Federated operations (globally consistent) ------------------------

  void out(Tuple t, std::function<void(bool)> done = nullptr);
  void rdp(const Pattern& p, MatchCb cb);
  void inp(const Pattern& p, MatchCb cb);
  void rd(const Pattern& p, transport::Time deadline, MatchCb cb);
  void in(const Pattern& p, transport::Time deadline, MatchCb cb);

  const Stats& stats() const { return stats_; }

  /// Coordinator ack-collection timeout; a silent member is expelled so
  /// the federation does not deadlock (crude failure handling).
  transport::Duration ack_timeout = transport::milliseconds(400);

 private:
  struct PendingOp {
    std::uint64_t id = 0;
    bool is_out = false;
    bool destructive = false;
    Tuple tuple;                      // for out
    std::optional<Pattern> pattern;   // for inp
    std::function<void(bool)> out_done;
    MatchCb cb;
  };

  struct CoordOp {
    std::uint64_t seq = 0;
    transport::NodeId origin = 0;
    std::uint64_t origin_op = 0;
    bool is_out = false;
    Tuple tuple;          // out payload, or the tuple removed by inp
    std::uint64_t victim = 0;  // replica key removed (0 = none)
    bool found = false;
    std::set<transport::NodeId> awaiting;
    transport::EventId timeout = transport::kInvalidEvent;
  };

  transport::NodeId coordinator() const;
  bool is_coordinator() const { return coordinator() == node(); }
  void handle(transport::NodeId from, const net::Message& m);

  // originator side
  void submit(PendingOp op);
  void flush_queue();
  std::optional<Tuple> local_match(const Pattern& p) const;
  /// Insert-or-overwrite into the replica index (map semantics).
  void replica_put(std::uint64_t key, const Tuple& t);

  // coordinator side
  void coord_sequence(transport::NodeId origin, const net::Message& m);
  void coord_maybe_finish(std::uint64_t seq);
  void begin_engagement(transport::NodeId newcomer);
  void finish_engagement();

  // member side
  /// Applies a coordinator's kLimeApply; false (applying nothing) when the
  /// message is malformed.
  bool apply(const net::Message& m);

  transport::Transport& net_;
  net::Endpoint endpoint_;
  transport::TimerService& timers_;  ///< this node's timer strand
  transport::GroupId group_;
  bool engaged_ = false;

  std::set<transport::NodeId> members_;  // includes self when engaged
  std::uint64_t epoch_ = 0;        // bumped on every membership change

  // Consistent replica, stored in the shared matching engine: tuple id =
  // the federation-wide key (creator<<40 ^ seq via coordinator sequence
  // numbers), so keyed rdp/inp probe one bucket instead of scanning and the
  // coordinator's victim pick stays deterministic (first match in ascending
  // key order, exactly the old std::map scan's answer).
  tuples::TupleIndex replica_;

  // Engagement state.
  bool pausing_ = false;   // coordinator barrier in progress (all hosts)
  bool joining_ = false;   // we are the newcomer waiting for ENGAGE_END
  transport::Time pause_started_ = 0;
  std::function<void(bool)> join_done_;
  // coordinator-only engagement bookkeeping
  std::set<transport::NodeId> pause_acks_pending_;
  transport::NodeId pending_newcomer_ = 0;
  transport::EventId engage_timeout_ = transport::kInvalidEvent;

  // Operation plumbing.
  std::uint64_t next_op_ = 1;
  std::deque<PendingOp> queued_;                 // stalled by engagement
  std::map<std::uint64_t, PendingOp> in_flight_; // sent to coordinator
  std::uint64_t next_seq_ = 1;                   // coordinator sequence
  std::map<std::uint64_t, CoordOp> coord_ops_;

  // Blocking waiters (local, replica is consistent), indexed by the shared
  // engine; the pattern lives in the WaiterIndex entry.
  struct Waiter {
    bool destructive;
    transport::Time deadline;
    transport::EventId deadline_event = transport::kInvalidEvent;
    MatchCb cb;
  };
  tuples::WaiterIndex<Waiter> waiters_;
  std::uint64_t next_waiter_ = 1;
  void serve_waiters_on_insert(const Tuple& t);
  void waiter_retry_in(std::uint64_t waiter_id);

  Stats stats_;
};

}  // namespace tiamat::baselines
