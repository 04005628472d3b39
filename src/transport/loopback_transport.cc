#include "transport/loopback_transport.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace tiamat::transport {

namespace {
constexpr Duration kMaxSleepSlice = kSecond;  // bound cv waits (kNever timers)
constexpr Duration kPollInterval = 200;       // wait_until poll cadence (us)

/// MutexLock that attributes contention: the fast path is a plain try_lock
/// (no clock read); only a sender that actually blocks pays two steady_clock
/// reads, and the time it sat out lands in `waited_us`. The overhead-gate
/// baseline (TIAMAT_OBS_OFF) compiles the accounting away entirely.
class TIAMAT_SCOPED_CAPABILITY TimedMutexLock {
 public:
  TimedMutexLock(Mutex& mu, std::atomic<std::uint64_t>& waited_us)
      TIAMAT_ACQUIRE(mu)
      : mu_(mu) {
#if defined(TIAMAT_OBS_OFF)
    (void)waited_us;
    mu_.lock();
#else
    if (mu_.try_lock()) return;
    const auto t0 = std::chrono::steady_clock::now();
    mu_.lock();
    waited_us.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
#endif
  }
  ~TimedMutexLock() TIAMAT_RELEASE() { mu_.unlock(); }

  TimedMutexLock(const TimedMutexLock&) = delete;
  TimedMutexLock& operator=(const TimedMutexLock&) = delete;

 private:
  Mutex& mu_;
};
}  // namespace

LoopbackTransport::LoopbackTransport(LoopbackOptions opts)
    : opts_(opts),
      start_(std::chrono::steady_clock::now()),
      rng_(opts.seed) {
  const unsigned n = std::max(1u, opts_.workers);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (unsigned i = 0; i < n; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

LoopbackTransport::~LoopbackTransport() {
  for (auto& w : workers_) {
    {
      MutexLock lk(w->mu);
      w->stop = true;
    }
    w->cv.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

Time LoopbackTransport::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

namespace {
/// Task-start timestamp of the strand callback currently running on this
/// worker thread; negative outside any callback (external threads). Each
/// worker thread belongs to exactly one LoopbackTransport, so a plain
/// thread_local is unambiguous — and it is what lets now_coarse() serve a
/// per-op trace burst without touching the hardware clock.
thread_local Time t_task_start = -1;
}  // namespace

Time LoopbackTransport::now_coarse() const {
  // Inside a strand callback, reuse the stamp the worker loop took when it
  // dequeued the task (instrumentation precision becomes task-granular;
  // callbacks here run for microseconds). Anywhere else, read the clock.
  return t_task_start >= 0 ? t_task_start : now();
}

NodeId LoopbackTransport::add_node(NodeOptions) {
  MutexLock lk(mu_);
  const NodeId id = next_node_++;
  Node node;
  node.worker = (id - 1) % workers_.size();
  node.timers = std::make_unique<NodeTimers>(this, id, node.worker);
  nodes_.emplace(id, std::move(node));
  return id;
}

void LoopbackTransport::remove_node(NodeId id) {
  std::size_t worker;
  {
    MutexLock lk(mu_);
    auto it = nodes_.find(id);
    if (it == nodes_.end() || it->second.closed) return;
    it->second.closed = true;
    it->second.handler = nullptr;
    it->second.groups.clear();
    worker = it->second.worker;
  }
  // Quiesce: once the fence is acquired, no callback of this node is in
  // flight and none will start (execution checks `closed` first).
  fence(*workers_[worker]);
}

bool LoopbackTransport::node_exists(NodeId id) const {
  MutexLock lk(mu_);
  auto it = nodes_.find(id);
  return it != nodes_.end() && !it->second.closed;
}

void LoopbackTransport::set_online(NodeId id, bool online) {
  MutexLock lk(mu_);
  auto it = nodes_.find(id);
  if (it != nodes_.end() && !it->second.closed) it->second.online = online;
}

bool LoopbackTransport::online(NodeId id) const {
  MutexLock lk(mu_);
  auto it = nodes_.find(id);
  return it != nodes_.end() && !it->second.closed && it->second.online;
}

bool LoopbackTransport::visible(NodeId a, NodeId b) const {
  if (a == b) return false;
  MutexLock lk(mu_);
  auto ia = nodes_.find(a);
  auto ib = nodes_.find(b);
  return ia != nodes_.end() && !ia->second.closed && ia->second.online &&
         ib != nodes_.end() && !ib->second.closed && ib->second.online;
}

std::vector<NodeId> LoopbackTransport::visible_from(NodeId id) const {
  std::vector<NodeId> out;
  MutexLock lk(mu_);
  auto self = nodes_.find(id);
  if (self == nodes_.end() || self->second.closed || !self->second.online) {
    return out;
  }
  for (const auto& [nid, node] : nodes_) {
    if (nid != id && !node.closed && node.online) out.push_back(nid);
  }
  return out;
}

void LoopbackTransport::bind(NodeId id, DeliveryHandler handler) {
  std::size_t worker;
  {
    MutexLock lk(mu_);
    auto it = nodes_.find(id);
    if (it == nodes_.end() || it->second.closed) return;
    it->second.handler = std::move(handler);
    worker = it->second.worker;
  }
  // Synchronize with any in-flight invocation of the previous handler.
  fence(*workers_[worker]);
}

void LoopbackTransport::join_group(NodeId id, GroupId group) {
  MutexLock lk(mu_);
  auto it = nodes_.find(id);
  if (it != nodes_.end() && !it->second.closed) it->second.groups.insert(group);
}

void LoopbackTransport::leave_group(NodeId id, GroupId group) {
  MutexLock lk(mu_);
  auto it = nodes_.find(id);
  if (it != nodes_.end() && !it->second.closed) it->second.groups.erase(group);
}

void LoopbackTransport::deliver_one(NodeId from, NodeId to, const Node& dest,
                                    Payload payload) {
  // Caller holds mu_ (for the group walk / stats / rng draws).
  stats_.bytes_sent += payload.size();
  if (opts_.loss > 0.0 && rng_.chance(opts_.loss)) {
    ++stats_.drops_loss;
    return;
  }
  Duration delay = opts_.delivery_delay;
  if (opts_.delivery_jitter > 0) {
    delay += rng_.uniform(0, opts_.delivery_jitter);
  }
  enqueue(dest.worker, now() + std::max<Duration>(delay, 0),
          Task{.node = to, .from = from, .payload = std::move(payload)});
}

void LoopbackTransport::send(NodeId from, NodeId to, Payload payload) {
  TimedMutexLock lk(mu_, lock_wait_us_);
  ++stats_.unicasts_sent;
  auto src = nodes_.find(from);
  auto dst = nodes_.find(to);
  if (src == nodes_.end() || src->second.closed || !src->second.online ||
      dst == nodes_.end() || dst->second.closed || !dst->second.online) {
    ++stats_.drops_dead;
    stats_.bytes_sent += payload.size();
    return;
  }
  deliver_one(from, to, dst->second, std::move(payload));
}

void LoopbackTransport::multicast(NodeId from, GroupId group, Payload payload) {
  TimedMutexLock lk(mu_, lock_wait_us_);
  ++stats_.multicasts_sent;
  auto src = nodes_.find(from);
  if (src == nodes_.end() || src->second.closed || !src->second.online) {
    ++stats_.drops_dead;
    return;
  }
  // Ordered map: members are reached in ascending node-id order, so equal
  // delays keep a deterministic per-multicast fan-out order.
  for (const auto& [nid, node] : nodes_) {
    if (nid == from || node.closed || !node.online) continue;
    if (!node.groups.contains(group)) continue;
    deliver_one(from, nid, node, payload);
  }
}

TimerService& LoopbackTransport::timers(NodeId id) {
  MutexLock lk(mu_);
  auto it = nodes_.find(id);
  // Nodes are never forgotten (only closed), so a live caller always finds
  // its service; a bogus id is a programming error.
  return *it->second.timers;
}

TimerId LoopbackTransport::schedule_timer(NodeId node, std::size_t worker,
                                          Time when, std::function<void()> fn) {
  return enqueue(worker, std::max(when, now()),
                 Task{.node = node, .fn = std::move(fn)});
}

bool LoopbackTransport::cancel_timer(std::size_t worker, TimerId id) {
  Worker& w = *workers_[worker];
  // Declared before the lock, so the closure is destroyed after it is
  // released: a capture's destructor may call back into the transport.
  std::optional<Task> cancelled;
  {
    MutexLock lk(w.mu);
    cancelled = w.inbox.cancel(id);
  }
  if (!cancelled) return false;
  w.sched.cancels.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void LoopbackTransport::post(NodeId id, std::function<void()> fn) {
  std::size_t worker;
  {
    MutexLock lk(mu_);
    auto it = nodes_.find(id);
    if (it == nodes_.end() || it->second.closed) return;
    worker = it->second.worker;
  }
  enqueue(worker, now(), Task{.node = id, .fn = std::move(fn)});
}

TimerId LoopbackTransport::enqueue(std::size_t worker, Time due, Task task) {
  Worker& w = *workers_[worker];
  TimerId id;
  {
    MutexLock lk(w.mu);
    if (w.stop) return kInvalidTimer;
    id = w.inbox.push(due, std::move(task));
    w.depth_max = std::max<std::uint64_t>(w.depth_max, w.inbox.size());
  }
  w.cv.notify_all();
  return id;
}

bool LoopbackTransport::wait_until(const std::function<bool()>& pred,
                                   Duration max_wait) {
  // Exclusive with every strand: pred may read protocol state that
  // callbacks write, and the lock handoff orders those writes before the
  // read. TSA cannot model a lock set whose cardinality is only known at
  // run time (one exec_mu per worker), so this RAII scope is excluded from
  // the analysis and stays covered by the tsan gate.
  struct StrandExclusion {
    std::vector<std::unique_ptr<Worker>>& ws;
    explicit StrandExclusion(std::vector<std::unique_ptr<Worker>>& workers)
        TIAMAT_NO_THREAD_SAFETY_ANALYSIS : ws(workers) {
      for (auto& w : ws) w->exec_mu.lock();
    }
    ~StrandExclusion() TIAMAT_NO_THREAD_SAFETY_ANALYSIS {
      for (auto it = ws.rbegin(); it != ws.rend(); ++it) {
        (*it)->exec_mu.unlock();
      }
    }
  };
  const Time deadline = now() + (max_wait < 0 ? 0 : max_wait);
  for (;;) {
    {
      StrandExclusion locks(workers_);
      if (pred()) return true;
      if (now() >= deadline) return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(kPollInterval));
  }
}

Rng LoopbackTransport::fork_rng() {
  MutexLock lk(mu_);
  return rng_.fork();
}

LoopbackTransport::Stats LoopbackTransport::stats() const {
  MutexLock lk(mu_);
  return stats_;
}

LoopbackTransport::SchedStats LoopbackTransport::sched_stats() const {
  SchedStats out;
  out.workers.reserve(workers_.size());
  for (const auto& wp : workers_) {
    Worker& w = *wp;
    WorkerSched ws;
    ws.tasks = w.sched.tasks.load(std::memory_order_relaxed);
    ws.lag_us_sum = w.sched.lag_sum.load(std::memory_order_relaxed);
    ws.lag_us_max = w.sched.lag_max.load(std::memory_order_relaxed);
    ws.busy_us = w.sched.busy.load(std::memory_order_relaxed);
    ws.cancels = w.sched.cancels.load(std::memory_order_relaxed);
    {
      MutexLock lk(w.mu);
      ws.queue_depth = w.inbox.size();
      ws.queue_depth_max = w.depth_max;
    }
    out.workers.push_back(ws);
  }
  out.lock_wait_us = lock_wait_us_.load(std::memory_order_relaxed);
  out.uptime_us = now();
  return out;
}

void LoopbackTransport::fence(Worker& w) {
  if (std::this_thread::get_id() == w.thread.get_id()) return;
  MutexLock ex(w.exec_mu);
}

void LoopbackTransport::run_task(Worker& w, Task task) {
  MutexLock ex(w.exec_mu);
  const bool delivery = task.from != kNoNode;
  DeliveryHandler handler;
  {
    MutexLock lk(mu_);
    auto it = nodes_.find(task.node);
    if (it == nodes_.end() || it->second.closed) {
      // Delivery-after-close safety: a payload or timer racing with
      // remove_node is dropped here, on the strand, never observed by
      // protocol code.
      if (delivery) ++stats_.drops_dead;
      return;
    }
    if (delivery) {
      if (!it->second.online) {
        ++stats_.drops_dead;
        return;
      }
      handler = it->second.handler;  // copy out: handler may rebind
      ++stats_.deliveries;
    }
  }
  if (delivery) {
    if (handler) handler(task.from, task.payload);
  } else if (task.fn) {
    task.fn();
  }
}

void LoopbackTransport::worker_loop(std::size_t index) {
  Worker& w = *workers_[index];
  // Manual lock/unlock rather than RAII: the lock is dropped around every
  // run_task call and reacquired after; TSA verifies the hold pattern is
  // consistent at every loop edge.
  w.mu.lock();
  for (;;) {
    if (w.stop) break;
    if (w.inbox.empty()) {
      w.cv.wait(w.mu);
      continue;
    }
    const Time due = w.inbox.next_due();
    const Time t = now();
    if (t < due) {
      const Duration wait = std::min(due - t, kMaxSleepSlice);
      w.cv.wait_for(w.mu, std::chrono::microseconds(wait));
      continue;
    }
    Task task = w.inbox.pop();
    w.mu.unlock();
    t_task_start = t;  // serves now_coarse() for the callback's trace burst
#if !defined(TIAMAT_OBS_OFF)
    // Strand lag: the task was due at `due` and starts now-ish (`t` was
    // read just before the pop; t >= due on this branch). The run itself is
    // bracketed with one extra clock read for the busy/utilization series.
    const auto lag = static_cast<std::uint64_t>(t - due);
    Worker::SchedCells::bump(w.sched.lag_sum, lag);
    if (lag > w.sched.lag_max.load(std::memory_order_relaxed)) {
      w.sched.lag_max.store(lag, std::memory_order_relaxed);  // single writer
    }
#endif
    run_task(w, std::move(task));
#if !defined(TIAMAT_OBS_OFF)
    Worker::SchedCells::bump(w.sched.busy,
                             static_cast<std::uint64_t>(now() - t));
#endif
    Worker::SchedCells::bump(w.sched.tasks);
    w.mu.lock();
  }
  w.mu.unlock();
}

}  // namespace tiamat::transport
