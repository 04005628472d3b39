// In-process multi-threaded Transport backend.
//
// The second backend of ROADMAP item 1: the same protocol stack that runs
// on the deterministic simulator serves real concurrent traffic here. Nodes
// are multiplexed onto a small pool of worker threads; each worker's inbox
// (deliveries, timers, posted closures of its nodes) is a
// transport::TimerHeap — the indexed heap sim::EventQueue uses — drained by
// exactly one thread, which is what implements the strand contract from
// transport/transport.h: per-node callbacks are serialized without any
// locking inside protocol code, while distinct nodes run genuinely in
// parallel. A cancelled timer leaves the inbox, closure and all, before
// cancel returns. Time is the machine's monotonic clock (microseconds since
// transport construction) behind the transport::Clock abstraction, so
// protocol code stays wall-clock-free by construction; delivery delay,
// jitter and loss are configurable to keep the sim's failure modes
// exercisable under real threads.
//
// This file (and the rest of src/transport/) is the only place in the tree
// where <thread>/<mutex>/<atomic>/steady_clock are permitted — the linter's
// concurrency rule keeps the simulator and the protocol layers
// deterministic by construction. The locking discipline itself is proven at
// compile time: every mutex here is a transport::Mutex carrying clang
// Thread Safety Analysis attributes (transport/thread_annotations.h), and
// the `tsa` preset builds with -Werror=thread-safety.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "transport/thread_annotations.h"
#include "transport/timer_heap.h"
#include "transport/transport.h"

namespace tiamat::transport {

struct LoopbackOptions {
  /// Worker threads the node strands are multiplexed onto (clamped to >=1).
  unsigned workers = 4;
  /// Fixed latency added to every delivery.
  Duration delivery_delay = 0;
  /// Uniform extra delivery latency in [0, jitter]. Non-zero jitter may
  /// reorder same-sender deliveries (per-sender FIFO holds at jitter 0).
  Duration delivery_jitter = 0;
  /// Independent per-delivery drop probability.
  double loss = 0.0;
  /// Seeds fork_rng() and the loss/jitter draws.
  std::uint64_t seed = 0x7113a7u;
};

class LoopbackTransport final : public Transport {
 public:
  /// Aggregate traffic counters (snapshot; maintained under the registry
  /// lock, so concurrent senders never lose updates).
  struct Stats {
    std::uint64_t unicasts_sent = 0;
    std::uint64_t multicasts_sent = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t drops_loss = 0;
    std::uint64_t drops_dead = 0;    ///< destination removed/offline
    std::uint64_t bytes_sent = 0;
  };

  explicit LoopbackTransport(LoopbackOptions opts = {});
  ~LoopbackTransport() override;

  LoopbackTransport(const LoopbackTransport&) = delete;
  LoopbackTransport& operator=(const LoopbackTransport&) = delete;

  // ---- Transport -----------------------------------------------------------
  NodeId add_node(NodeOptions opts = {}) override;
  void remove_node(NodeId id) override;
  bool node_exists(NodeId id) const override;
  void set_online(NodeId id, bool online) override;
  bool online(NodeId id) const override;
  bool visible(NodeId a, NodeId b) const override;
  std::vector<NodeId> visible_from(NodeId id) const override;
  void bind(NodeId id, DeliveryHandler handler) override;
  void join_group(NodeId id, GroupId group) override;
  void leave_group(NodeId id, GroupId group) override;
  void send(NodeId from, NodeId to, Payload payload) override;
  void multicast(NodeId from, GroupId group, Payload payload) override;
  Time now() const override;
  Time now_coarse() const override;
  TimerService& timers(NodeId id) override;
  void post(NodeId id, std::function<void()> fn) override;
  bool wait_until(const std::function<bool()>& pred,
                  Duration max_wait = 30 * kSecond) override;
  Rng fork_rng() override;

  Stats stats() const;
  unsigned worker_count() const { return static_cast<unsigned>(workers_.size()); }

  /// Scheduler health of one worker (snapshot; cumulative since start).
  /// Strand lag is run-start minus due time — how long ready work sat in
  /// the inbox behind other strands' callbacks.
  struct WorkerSched {
    std::uint64_t tasks = 0;            ///< callbacks run to completion
    std::uint64_t lag_us_sum = 0;       ///< total strand lag
    std::uint64_t lag_us_max = 0;       ///< worst single strand lag
    std::uint64_t busy_us = 0;          ///< time spent inside callbacks
    std::uint64_t cancels = 0;          ///< cancel_timer hits
    std::uint64_t queue_depth = 0;      ///< inbox size right now
    std::uint64_t queue_depth_max = 0;  ///< high-water inbox size
  };
  struct SchedStats {
    std::vector<WorkerSched> workers;
    std::uint64_t lock_wait_us = 0;  ///< sender time blocked on mu_
    Time uptime_us = 0;              ///< wall time since construction
  };
  /// Snapshot of the scheduler telemetry (exported as the transport.sched.*
  /// metric families by obs::SchedExporter; see DESIGN.md §13).
  SchedStats sched_stats() const;

 private:
  /// One unit of strand work: a delivery of `payload` from `from`, or (with
  /// `from` kNoNode, which never names a node) a due timer or posted `fn`.
  struct Task {
    NodeId node = kNoNode;  ///< strand owner (the destination)
    NodeId from = kNoNode;
    Payload payload = {};
    std::function<void()> fn = {};
  };

  /// One worker thread: the merged, time-ordered inbox of every node strand
  /// assigned to it, plus the execution lock that serializes its callbacks
  /// against fences (bind/remove_node) and wait_until.
  struct Worker {
    Mutex mu;
    CondVar cv;  ///< signaled on enqueue and stop; waits under mu
    TimerHeap<Task> inbox TIAMAT_GUARDED_BY(mu);  ///< by due time, then push
    bool stop TIAMAT_GUARDED_BY(mu) = false;
    std::uint64_t depth_max TIAMAT_GUARDED_BY(mu) = 0;  ///< inbox high water
    /// Scheduler telemetry cells: written by the one worker thread (and
    /// cancel_timer for cancels), read by sched_stats() from anywhere —
    /// relaxed atomics, monotone, never torn. Cache-line aligned so the
    /// per-task bumps never invalidate the line senders hit through `mu`,
    /// and single-writer cells use load+store (no RMW) via `bump()`.
    struct alignas(64) SchedCells {
      std::atomic<std::uint64_t> tasks{0};
      std::atomic<std::uint64_t> lag_sum{0};
      std::atomic<std::uint64_t> lag_max{0};
      std::atomic<std::uint64_t> busy{0};
      std::atomic<std::uint64_t> cancels{0};  ///< multi-writer: RMW only here

      /// Single-writer increment: plain load+store beats `lock xadd` on the
      /// hot path, and relaxed ordering is all a monotone gauge needs.
      static void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {
        c.store(c.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
      }
    };
    SchedCells sched;
    /// Held for the duration of every callback. Guards no data — it exists
    /// so fence() and wait_until() can exclude themselves from the strand
    /// (see the TIAMAT_EXCLUDES contracts on run_task/fence below). Never
    /// nested with mu; run_task acquires it before the registry mu_.
    Mutex exec_mu;
    std::thread thread;
  };

  /// Per-node TimerService facade; lives until the transport dies (remove_
  /// node only quiesces it), so teardown-order cancels stay safe.
  class NodeTimers final : public TimerService {
   public:
    NodeTimers(LoopbackTransport* t, NodeId node, std::size_t worker)
        : t_(t), node_(node), worker_(worker) {}
    Time now() const override { return t_->now(); }
    TimerId schedule_at(Time when, std::function<void()> fn) override {
      return t_->schedule_timer(node_, worker_, when, std::move(fn));
    }
    bool cancel(TimerId id) override { return t_->cancel_timer(worker_, id); }

   private:
    LoopbackTransport* t_;
    NodeId node_;
    std::size_t worker_;
  };

  struct Node {
    std::size_t worker = 0;
    bool online = true;
    bool closed = false;
    DeliveryHandler handler;
    std::set<GroupId> groups;
    std::unique_ptr<NodeTimers> timers;
  };

  TimerId schedule_timer(NodeId node, std::size_t worker, Time when,
                         std::function<void()> fn);
  bool cancel_timer(std::size_t worker, TimerId id);
  /// Pushes `task` due at `due` into the worker's inbox; returns its id
  /// (kInvalidTimer once the worker has stopped).
  TimerId enqueue(std::size_t worker, Time due, Task task);
  void deliver_one(NodeId from, NodeId to, const Node& dest, Payload payload)
      TIAMAT_REQUIRES(mu_);
  void worker_loop(std::size_t index);
  /// Runs one task on its strand: exec_mu held across the callback, the
  /// registry lock only for the closed/online/handler snapshot. Takes the
  /// task by value, so its closure dies before the caller retakes w.mu.
  void run_task(Worker& w, Task task) TIAMAT_EXCLUDES(w.mu, w.exec_mu, mu_);
  /// Blocks until no callback of `w`'s strand is in flight. No-op when
  /// already on that strand's worker thread (the caller IS the callback).
  void fence(Worker& w) TIAMAT_EXCLUDES(w.exec_mu);

  const LoopbackOptions opts_;
  const std::chrono::steady_clock::time_point start_;

  /// Registry lock: node table + groups + stats ledger + rng. Lock order
  /// is exec_mu -> mu_ -> Worker::mu (run_task snapshots the registry under
  /// the strand's exec_mu; the send path enqueues into a worker inbox while
  /// holding mu_); no path takes them in the reverse direction.
  mutable Mutex mu_;
  std::map<NodeId, Node> nodes_ TIAMAT_GUARDED_BY(mu_);
  NodeId next_node_ TIAMAT_GUARDED_BY(mu_) = 1;
  Rng rng_ TIAMAT_GUARDED_BY(mu_);
  Stats stats_ TIAMAT_GUARDED_BY(mu_);

  /// Sender time spent blocked acquiring mu_ (send/multicast contention;
  /// uncontended acquisitions cost no clock read).
  std::atomic<std::uint64_t> lock_wait_us_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace tiamat::transport
