// The directed load-balancing architecture the fractal application used
// *before* its port to Tiamat (§3.2): a central server that workers
// register with and that assigns tasks round-robin. Everything the tuple
// space gives for free — anonymous workers, failover, queueing while no
// worker is available — must be hand-rolled here; E10 compares the two.

#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <functional>
#include <map>
#include <vector>

#include "apps/fractal.h"
#include "net/endpoint.h"

namespace tiamat::apps::loadbalance {

enum LbMsg : std::uint16_t {
  kLbRegister = 601,  ///< worker -> server
  kLbTask = 602,      ///< server -> worker
  kLbResult = 603,    ///< worker -> server
  kLbSubmit = 604,    ///< master -> server
  kLbDeliver = 605,   ///< server -> master
};

class LoadBalancingServer {
 public:
  struct Stats {
    std::uint64_t tasks_assigned = 0;
    std::uint64_t reassignments = 0;  ///< worker presumed dead
    std::uint64_t results_forwarded = 0;
  };

  explicit LoadBalancingServer(transport::Transport& net, transport::NodeOptions pos = {});

  transport::NodeId node() const { return endpoint_.node(); }
  std::size_t workers() const { return workers_.size(); }
  const Stats& stats() const { return stats_; }

  /// How long a worker may sit on a task before it is reassigned.
  transport::Duration task_timeout = transport::seconds(2);

 private:
  struct Task {
    std::uint64_t id;
    net::Message payload;       // the original kLbSubmit
    transport::NodeId master;
    transport::NodeId assigned_to = transport::kNoNode;
    transport::EventId timeout = transport::kInvalidEvent;
  };

  void handle(transport::NodeId from, const net::Message& m);
  void pump();
  void assign(std::uint64_t task_id);

  transport::Transport& net_;
  net::Endpoint endpoint_;
  transport::TimerService& timers_;  ///< this node's timer strand
  std::vector<transport::NodeId> workers_;
  std::size_t next_worker_ = 0;
  std::uint64_t next_task_ = 1;
  std::deque<std::uint64_t> queue_;       // unassigned task ids
  std::map<std::uint64_t, Task> tasks_;   // outstanding
  Stats stats_;
};

class LbWorker {
 public:
  LbWorker(transport::Transport& net, transport::NodeId server,
           transport::Duration row_cost = transport::milliseconds(20),
           transport::NodeOptions pos = {});
  ~LbWorker();

  transport::NodeId node() const { return endpoint_.node(); }
  void start();  ///< registers with the server
  void stop() { running_ = false; }

  std::uint64_t rows_computed() const { return rows_computed_; }

 private:
  void handle(transport::NodeId from, const net::Message& m);

  transport::Transport& net_;
  net::Endpoint endpoint_;
  transport::TimerService& timers_;  ///< this node's timer strand
  transport::NodeId server_;
  transport::Duration row_cost_;
  bool running_ = false;
  bool busy_ = false;  ///< one CPU: tasks are computed serially
  /// A decoded kLbTask: the server's task id, the master's job and row.
  struct Row {
    std::uint64_t task_id = 0;
    std::int64_t job = 0;
    int row = 0;
    fractal::Params params;
  };
  std::deque<Row> backlog_;
  std::uint64_t rows_computed_ = 0;
  std::set<transport::EventId> pending_;

  void work_on(const Row& r);
  void next_from_backlog();
};

class LbMaster {
 public:
  LbMaster(transport::Transport& net, transport::NodeId server, fractal::Params params,
           std::uint64_t job, transport::NodeOptions pos = {});

  transport::NodeId node() const { return endpoint_.node(); }
  void start(std::function<void()> done);

  std::size_t rows_done() const { return rows_done_; }
  bool complete() const {
    return rows_done_ == static_cast<std::size_t>(params_.height);
  }
  transport::Duration elapsed() const { return finished_at_ - started_at_; }
  const std::vector<std::vector<std::uint16_t>>& image() const {
    return image_;
  }

 private:
  void handle(transport::NodeId from, const net::Message& m);

  transport::Transport& net_;
  net::Endpoint endpoint_;
  transport::TimerService& timers_;  ///< this node's timer strand
  transport::NodeId server_;
  fractal::Params params_;
  std::uint64_t job_;
  std::vector<std::vector<std::uint16_t>> image_;
  std::size_t rows_done_ = 0;
  transport::Time started_at_ = 0;
  transport::Time finished_at_ = 0;
  std::function<void()> done_;
};

}  // namespace tiamat::apps::loadbalance
