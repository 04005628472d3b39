// Active tuples and the eval engine (§2.1, §2.5).
//
// "In the case of eval the tuple is considered active and contains some
// computation which must be carried out before the resultant tuple becomes
// available." Computation cost is modelled as virtual time; when the lease
// expires first, "the resultant computation (if it has not already finished)
// may be halted and the tuple may be removed."

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <variant>
#include <vector>

#include "transport/types.h"
#include "transport/timer.h"
#include "space/local_space.h"
#include "tuple/tuple.h"

namespace tiamat::space {

/// One computed field of an active tuple: the function producing the value
/// and its simulated cost.
struct Computation {
  std::function<tuples::Value()> fn;
  transport::Duration cost = transport::milliseconds(1);
};

/// An active tuple: a mix of ready values and computations. The resultant
/// (passive) tuple becomes available only once every computation finishes.
class ActiveTuple {
 public:
  ActiveTuple() = default;

  ActiveTuple& add(tuples::Value v) {
    slots_.emplace_back(std::move(v));
    return *this;
  }
  ActiveTuple& add(Computation c) {
    slots_.emplace_back(std::move(c));
    return *this;
  }
  ActiveTuple& add(std::function<tuples::Value()> fn,
                   transport::Duration cost = transport::milliseconds(1)) {
    return add(Computation{std::move(fn), cost});
  }

  std::size_t arity() const { return slots_.size(); }

  /// Total simulated compute cost (computations are carried out serially).
  transport::Duration total_cost() const;

  /// Runs every computation now and materialises the passive tuple.
  tuples::Tuple materialise() const;

 private:
  std::vector<std::variant<tuples::Value, Computation>> slots_;
};

using EvalId = std::uint64_t;
inline constexpr EvalId kNoEval = 0;

/// Runs active tuples against a local space on the simulated clock.
class EvalEngine {
 public:
  struct Stats {
    std::uint64_t completed = 0;
    std::uint64_t halted = 0;  ///< lease expired mid-computation
  };

  EvalEngine(transport::TimerService& queue, LocalTupleSpace& target);
  ~EvalEngine();

  EvalEngine(const EvalEngine&) = delete;
  EvalEngine& operator=(const EvalEngine&) = delete;

  /// Starts the computation; the resultant tuple appears in the target
  /// space after the active tuple's total cost, with `tuple_expiry` as its
  /// storage lease. If `halt_by` (the operation lease's expiry) arrives
  /// first, the computation is halted and nothing appears.
  EvalId submit(ActiveTuple at, transport::Time halt_by = transport::kNever,
                transport::Time tuple_expiry = transport::kNever);

  /// Generalised form: an arbitrary whole-tuple computation with an
  /// explicit simulated cost. Used by remote eval (§2.4), where the
  /// computation comes from the ComputationRegistry.
  EvalId submit_fn(std::function<tuples::Tuple()> fn, transport::Duration cost,
                   transport::Time halt_by = transport::kNever,
                   transport::Time tuple_expiry = transport::kNever);

  /// Halts a running computation (lease revocation path). False if it
  /// already completed.
  bool halt(EvalId id);

  std::size_t running() const { return running_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Running {
    std::function<tuples::Tuple()> job;
    transport::EventId completion = transport::kInvalidEvent;
    transport::EventId halt_event = transport::kInvalidEvent;
    transport::Time tuple_expiry;
  };

  void complete(EvalId id);

  transport::TimerService& queue_;
  LocalTupleSpace& target_;
  EvalId next_id_ = 1;
  // Ordered: teardown cancels completion/halt events in id order.
  std::map<EvalId, Running> running_;
  Stats stats_;
};

}  // namespace tiamat::space
