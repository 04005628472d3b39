// The local tuple space: one per Tiamat instance (§2.2, §3.1.2).
//
// Implements the six Linda operations with Tiamat's lease-aware extensions:
// per-tuple expiry times, deadline-bounded blocking operations (the paper's
// deliberate semantic deviation: a blocked in/rd returns nothing when its
// lease expires), nondeterministic selection among multiple matches, and a
// tentative-removal protocol used by the distributed first-response-wins
// resolution (§3.1.3) so that losing responders can put tuples back.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "obs/metrics.h"
#include "transport/types.h"
#include "transport/timer.h"
#include "tuple/index.h"
#include "tuple/matcher.h"
#include "tuple/pattern.h"
#include "tuple/tuple.h"
#include "tuple/waiter_index.h"

namespace tiamat::space {

using tuples::Pattern;
using tuples::Tuple;
using tuples::TupleId;

/// Invoked exactly once per blocking operation: with the matched tuple, or
/// with nullopt when the deadline passed or the waiter was cancelled.
using MatchCallback = std::function<void(std::optional<Tuple>)>;

using WaiterId = std::uint64_t;
inline constexpr WaiterId kNoWaiter = 0;

struct SpaceStats {
  std::uint64_t outs = 0;
  std::uint64_t reads = 0;          ///< rd/rdp attempts
  std::uint64_t takes = 0;          ///< in/inp attempts
  std::uint64_t hits = 0;           ///< non-blocking op satisfied
  std::uint64_t waiter_satisfied = 0;
  std::uint64_t waiter_timed_out = 0;
  std::uint64_t tuples_expired = 0;
  std::uint64_t tentative_released = 0;
  std::uint64_t tentative_confirmed = 0;
};

struct SpaceOptions {
  std::string name = "local";
  bool persistent = false;  ///< advertised in the space-handle tuple
};

class LocalTupleSpace {
 public:
  using Options = SpaceOptions;

  LocalTupleSpace(transport::TimerService& queue, transport::Rng& rng, Options opts = {});

  LocalTupleSpace(const LocalTupleSpace&) = delete;
  LocalTupleSpace& operator=(const LocalTupleSpace&) = delete;

  ~LocalTupleSpace();

  // ---- The six Linda operations (local forms) ---------------------------

  /// Places a tuple in the space. `expiry` is the lease-derived instant
  /// after which the tuple may be reclaimed (kNever = no expiry). If a
  /// blocked destructive waiter matches, the tuple goes straight to it and
  /// is never stored. Returns the stored tuple's id (kNoTuple when it was
  /// consumed immediately by a waiter).
  TupleId out(Tuple t, transport::Time expiry = transport::kNever);

  /// Non-blocking read: copy of a matching tuple, chosen nondeterministically
  /// among all matches, or nullopt. Takes the pattern compiled, so a caller
  /// that already holds one (the instance's local-hit path) compiles once.
  std::optional<Tuple> rdp(const tuples::CompiledPattern& p);
  std::optional<Tuple> rdp(const Pattern& p) {
    return rdp(tuples::CompiledPattern(p));
  }

  /// Non-blocking take: as rdp but removes the tuple.
  std::optional<Tuple> inp(const tuples::CompiledPattern& p);
  std::optional<Tuple> inp(const Pattern& p) {
    return inp(tuples::CompiledPattern(p));
  }

  /// Blocking read: calls back immediately on a present match, otherwise
  /// registers a waiter until `deadline` (the lease expiry). Returns a
  /// waiter id (kNoWaiter if satisfied synchronously).
  WaiterId rd(const Pattern& p, transport::Time deadline, MatchCallback cb);

  /// Blocking take; otherwise as rd.
  WaiterId in(const Pattern& p, transport::Time deadline, MatchCallback cb);

  /// Cancels a pending waiter without invoking its callback. Returns false
  /// if it already completed.
  bool cancel_waiter(WaiterId id);

  // ---- Tentative removal (first-response-wins support, §3.1.3) ----------

  /// Removes a matching tuple from visibility but keeps it recoverable.
  std::optional<std::pair<TupleId, Tuple>> take_tentative(
      const tuples::CompiledPattern& p);
  std::optional<std::pair<TupleId, Tuple>> take_tentative(const Pattern& p) {
    return take_tentative(tuples::CompiledPattern(p));
  }

  /// Same, but waits until `deadline` for a match (remote blocking in).
  /// The callback receives the id+tuple once tentatively removed.
  WaiterId take_tentative_blocking(
      const tuples::CompiledPattern& p, transport::Time deadline,
      std::function<void(std::optional<std::pair<TupleId, Tuple>>)> cb);
  WaiterId take_tentative_blocking(
      const Pattern& p, transport::Time deadline,
      std::function<void(std::optional<std::pair<TupleId, Tuple>>)> cb) {
    return take_tentative_blocking(tuples::CompiledPattern(p), deadline,
                                   std::move(cb));
  }

  /// Loser path: puts a tentatively-removed tuple back (it becomes visible
  /// again and may satisfy pending waiters).
  bool release_tentative(TupleId id);

  /// Winner path: the removal becomes permanent.
  bool confirm_tentative(TupleId id);

  std::size_t tentative_count() const { return tentative_.size(); }

  // ---- Maintenance & introspection ---------------------------------------

  /// Drops every tuple whose expiry has passed. Called automatically via
  /// per-tuple timers; exposed for tests.
  void purge_expired();

  /// Re-leases a stored tuple (e.g. its producer renewed).
  bool set_tuple_expiry(TupleId id, transport::Time expiry);

  /// Lease-driven reclamation: removes a stored tuple, or discards one
  /// parked by a tentative take, because its storage lease ended (counts as
  /// an expiry). False if it is neither stored nor parked.
  bool reclaim(TupleId id);

  bool contains(TupleId id) const { return index_.contains(id); }

  std::size_t size() const { return index_.size(); }
  std::size_t footprint() const { return index_.total_footprint(); }
  std::size_t waiter_count() const { return waiters_.size(); }

  /// Approximate resident memory of the space engine's structures. Every
  /// figure is a deterministic formula over entry counts and tuple
  /// footprints (no allocator introspection), so the telemetry layer can
  /// sample it into gauges without breaking byte-determinism.
  struct MemoryStats {
    std::size_t tuple_count = 0;
    std::size_t tuple_bytes = 0;      ///< TupleIndex::approx_bytes
    std::size_t waiter_count = 0;
    std::size_t waiter_bytes = 0;     ///< WaiterIndex::approx_bytes
    std::size_t tentative_count = 0;
    std::size_t tentative_bytes = 0;  ///< parked tentative tuple footprints
    std::size_t total_bytes() const {
      return tuple_bytes + waiter_bytes + tentative_bytes;
    }
  };
  MemoryStats memory() const;

  /// Sets memory() into `r`'s "space.*" gauges (absolute set, so repeated
  /// sample-tick refreshes never accumulate).
  void export_memory_gauges(obs::Registry& r) const;

  /// Copy of every visible tuple (tests / examples).
  std::vector<Tuple> snapshot() const;

  /// Copy of every visible tuple with its absolute expiry instant
  /// (transport::kNever when unleased). Feeds the persistence mechanism.
  std::vector<std::pair<Tuple, transport::Time>> snapshot_with_expiry() const;

  /// Number of visible tuples matching `p`, via the engine's counting path
  /// (no match vector is materialized).
  std::size_t count_matches(const Pattern& p) const;

  /// True iff at least one visible tuple matches `p`; short-circuits on
  /// the first match.
  bool has_match(const tuples::CompiledPattern& p) const;
  bool has_match(const Pattern& p) const {
    return has_match(tuples::CompiledPattern(p));
  }

  const SpaceStats& stats() const { return stats_; }
  const Options& options() const { return opts_; }
  transport::Time now() const { return queue_.now(); }

  /// Binds the engine's accounting (keyed bucket probes vs unkeyed scan
  /// fallbacks for tuple lookups and waiter wakeups) to `r`: its "match.*"
  /// and "waiters.*" instruments are the only record. An unbound space
  /// counts no engine work.
  void bind_metrics(obs::Registry& r) {
    index_.bind_metrics(r);
    waiters_.bind_metrics(r);
  }

#if TIAMAT_AUDIT_ENABLED
  /// Cross-structure re-verification (audit builds only): delegates to the
  /// engine audits, then checks the space's own bookkeeping — expiry
  /// timers only for leased stored tuples, tentative tuples invisible to
  /// the index, id allocation monotonic. Traps through audit::fail.
  void audit_check(const char* checkpoint) const;

  /// Test hooks: direct engine access so the corruption-trap tests can
  /// break an invariant and watch the next operation's checkpoint fire.
  tuples::TupleIndex& audit_index() { return index_; }
  void audit_corrupt_waiter_fifo_for_test() {
    waiters_.audit_corrupt_fifo_for_test();
  }
#endif

 private:
  /// Waiter bookkeeping; the pattern lives in the WaiterIndex entry.
  struct Waiter {
    bool destructive;
    bool tentative;  ///< deliver (id, tuple) and keep it recoverable
    transport::Time deadline;
    transport::EventId deadline_event = transport::kInvalidEvent;
    MatchCallback cb;  // used when !tentative
    std::function<void(std::optional<std::pair<TupleId, Tuple>>)> tcb;
  };

  /// Picks one candidate id uniformly at random (the paper: "one is
  /// selected in a non-deterministic manner").
  std::optional<TupleId> select_match(const tuples::CompiledPattern& p);

  WaiterId add_waiter(tuples::CompiledPattern p, Waiter w);
  void waiter_deadline(WaiterId id);
  /// Offers a newly visible tuple to waiters; returns true if a destructive
  /// waiter consumed it.
  bool offer_to_waiters(TupleId id, const Tuple& t);
  void schedule_tuple_expiry(TupleId id, transport::Time expiry);
  void drop_tuple_timer(TupleId id);

  transport::TimerService& queue_;
  transport::Rng& rng_;
  Options opts_;
  tuples::TupleIndex index_;
  TupleId next_tuple_id_ = 1;
  WaiterId next_waiter_id_ = 1;
  // Waiters indexed like tuples; monotonic ids preserve FIFO ("oldest
  // waiter wins") within and across buckets.
  tuples::WaiterIndex<Waiter> waiters_;
  std::unordered_map<TupleId, Tuple> tentative_;
  std::unordered_map<TupleId, transport::Time> tentative_expiry_;
  std::size_t tentative_bytes_ = 0;  ///< sum of parked tuple footprints
  // Ordered: purge_expired and teardown walk these, so reclamation order
  // must be ascending-id, not hash order.
  std::map<TupleId, transport::EventId> expiry_events_;
  std::map<TupleId, transport::Time> expiries_;
  SpaceStats stats_;
};

}  // namespace tiamat::space
