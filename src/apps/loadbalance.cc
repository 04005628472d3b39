#include "apps/loadbalance.h"

#include <algorithm>

namespace tiamat::apps::loadbalance {

using fractal::compute_row;
using fractal::pack_row;
using fractal::Params;

// ---- Server ------------------------------------------------------------------

LoadBalancingServer::LoadBalancingServer(transport::Transport& net, transport::NodeOptions pos)
    : net_(net), endpoint_(net, net.add_node(pos)),
      timers_(net.timers(endpoint_.node())) {
  auto handler = [this](transport::NodeId from, const net::Message& m) {
    handle(from, m);
  };
  for (std::uint16_t t : {kLbRegister, kLbResult, kLbSubmit}) {
    endpoint_.on(t, handler);
  }
}

void LoadBalancingServer::handle(transport::NodeId from, const net::Message& m) {
  switch (m.type) {
    case kLbRegister: {
      if (std::find(workers_.begin(), workers_.end(), from) ==
          workers_.end()) {
        workers_.push_back(from);
      }
      pump();
      return;
    }
    case kLbSubmit: {
      Task t;
      t.id = next_task_++;
      t.payload = m;
      t.master = from;
      queue_.push_back(t.id);
      tasks_.emplace(t.id, std::move(t));
      pump();
      return;
    }
    case kLbResult: {
      // (server task id, job, row); forwarded whole to the master.
      const auto h = m.read<std::int64_t, std::int64_t, std::int64_t>();
      if (!h) {
        endpoint_.drop_malformed(from);
        return;
      }
      const auto task_id = static_cast<std::uint64_t>(std::get<0>(*h));
      auto it = tasks_.find(task_id);
      if (it == tasks_.end()) return;  // duplicate after reassignment
      if (it->second.timeout != transport::kInvalidEvent) {
        timers_.cancel(it->second.timeout);
      }
      net::Message deliver = m;
      deliver.type = kLbDeliver;
      ++stats_.results_forwarded;
      endpoint_.send(it->second.master, deliver);
      tasks_.erase(it);
      return;
    }
    default:
      return;
  }
}

void LoadBalancingServer::pump() {
  while (!queue_.empty() && !workers_.empty()) {
    std::uint64_t id = queue_.front();
    queue_.pop_front();
    assign(id);
  }
}

void LoadBalancingServer::assign(std::uint64_t task_id) {
  auto it = tasks_.find(task_id);
  if (it == tasks_.end() || workers_.empty()) return;
  Task& t = it->second;
  transport::NodeId worker = workers_[next_worker_ % workers_.size()];
  ++next_worker_;
  t.assigned_to = worker;
  ++stats_.tasks_assigned;

  net::Message task = t.payload;
  task.type = kLbTask;
  task.op_id = task_id;
  endpoint_.send(worker, task);

  // Hand-rolled failover: if the worker never answers, drop it and retry.
  t.timeout = timers_.schedule_after(task_timeout, [this, task_id] {
    auto it2 = tasks_.find(task_id);
    if (it2 == tasks_.end()) return;
    ++stats_.reassignments;
    workers_.erase(std::remove(workers_.begin(), workers_.end(),
                               it2->second.assigned_to),
                   workers_.end());
    it2->second.assigned_to = transport::kNoNode;
    it2->second.timeout = transport::kInvalidEvent;
    queue_.push_back(task_id);
    pump();
  });
}

// ---- Worker ------------------------------------------------------------------

LbWorker::LbWorker(transport::Transport& net, transport::NodeId server,
                   transport::Duration row_cost, transport::NodeOptions pos)
    : net_(net),
      endpoint_(net, net.add_node(pos)),
      timers_(net.timers(endpoint_.node())),
      server_(server),
      row_cost_(row_cost) {
  endpoint_.on(kLbTask, [this](transport::NodeId from, const net::Message& m) {
    handle(from, m);
  });
}

LbWorker::~LbWorker() {
  for (transport::EventId ev : pending_) timers_.cancel(ev);
}

void LbWorker::start() {
  running_ = true;
  net::Message reg;
  reg.type = kLbRegister;
  reg.origin = node();
  endpoint_.send(server_, reg);
}

void LbWorker::handle(transport::NodeId from, const net::Message& m) {
  if (!running_) return;
  using I = std::int64_t;
  // (job, row, width, height, max_iter, x0, x1, y0, y1)
  const auto h = m.read<I, I, I, I, I, double, double, double, double>();
  if (!h) {
    endpoint_.drop_malformed(from);
    return;
  }
  const auto [job, row, width, height, max_iter, x0, x1, y0, y1] = *h;
  const Row r{m.op_id, job, static_cast<int>(row),
              Params{static_cast<int>(width), static_cast<int>(height),
                     static_cast<int>(max_iter), x0, x1, y0, y1}};
  if (busy_) {
    backlog_.push_back(r);  // one CPU: queue behind the current row
    return;
  }
  work_on(r);
}

void LbWorker::next_from_backlog() {
  if (backlog_.empty() || !running_) return;
  const Row r = backlog_.front();
  backlog_.pop_front();
  work_on(r);
}

void LbWorker::work_on(const Row& r) {
  busy_ = true;
  auto ev = std::make_shared<transport::EventId>(transport::kInvalidEvent);
  *ev = timers_.schedule_after(row_cost_, [this, r, ev] {
    pending_.erase(*ev);
    if (!running_) return;
    auto pixels = compute_row(r.params, r.row);
    ++rows_computed_;
    net::Message res;
    res.type = kLbResult;
    res.origin = node();
    res.h(static_cast<std::int64_t>(r.task_id));
    res.h(r.job);
    res.h(r.row);
    res.tuple = tuples::Tuple{tuples::Value(pack_row(pixels))};
    endpoint_.send(server_, res);
    busy_ = false;
    next_from_backlog();
  });
  pending_.insert(*ev);
}

// ---- Master ---------------------------------------------------------------------

LbMaster::LbMaster(transport::Transport& net, transport::NodeId server,
                   fractal::Params params, std::uint64_t job,
                   transport::NodeOptions pos)
    : net_(net),
      endpoint_(net, net.add_node(pos)),
      timers_(net.timers(endpoint_.node())),
      server_(server),
      params_(params),
      job_(job) {
  image_.resize(static_cast<std::size_t>(params_.height));
  endpoint_.on(kLbDeliver, [this](transport::NodeId from, const net::Message& m) {
    handle(from, m);
  });
}

void LbMaster::start(std::function<void()> done) {
  done_ = std::move(done);
  started_at_ = net_.now();
  for (int row = 0; row < params_.height; ++row) {
    net::Message submit;
    submit.type = kLbSubmit;
    submit.origin = node();
    submit.h(static_cast<std::int64_t>(job_));
    submit.h(row);
    submit.h(params_.width);
    submit.h(params_.height);
    submit.h(params_.max_iter);
    submit.h(params_.x0);
    submit.h(params_.x1);
    submit.h(params_.y0);
    submit.h(params_.y1);
    endpoint_.send(server_, submit);
  }
}

void LbMaster::handle(transport::NodeId from, const net::Message& m) {
  // (task id, job, row) and a one-blob tuple of pixels.
  const auto h = m.read<std::int64_t, std::int64_t, std::int64_t>();
  const tuples::Blob* pixels =
      m.tuple && m.tuple->arity() == 1 ? (*m.tuple)[0].get_if<tuples::Blob>()
                                       : nullptr;
  if (!h || pixels == nullptr) {
    endpoint_.drop_malformed(from);
    return;
  }
  const std::int64_t row = std::get<2>(*h);
  if (row < 0 || row >= params_.height) return;
  auto& slot = image_[static_cast<std::size_t>(row)];
  if (!slot.empty()) return;  // duplicate after reassignment
  slot = fractal::unpack_row(*pixels);
  ++rows_done_;
  if (complete()) {
    finished_at_ = net_.now();
    if (done_) done_();
  }
}

}  // namespace tiamat::apps::loadbalance
