// web_request: the paper's §3.2 web proxy application (apps::web) on the
// sim: 4 WebClients and 2 caching ProxyServers, each proxy serving one
// request at a time. Clients GET uniformly from a catalogue of about 1 KiB
// pages. Set-up fetches the whole catalogue from every client to warm the
// proxy caches; the origin's fetch latency is zero, so a miss left over in
// the timed section adds no virtual time.
//
// The same layers as local_pair are used differently: blocking in on both
// sides fans out to every visible instance, with waiters, probes and
// cancels; responses are remote writes (out_to_origin) beside the takes;
// KiB-sized bodies load the codec. Its virtual-time latencies are the only
// end-to-end metrics that move with protocol round trips.

#include <string>

#include "apps/web.h"
#include "common.h"

namespace perfbench {
namespace {

using tiamat::tuples::any_int;
using tiamat::tuples::any_string;
using tiamat::tuples::Pattern;
using tiamat::tuples::Tuple;
namespace transport = tiamat::transport;
namespace web = tiamat::apps::web;

constexpr int kClients = 4;
constexpr int kProxies = 2;
constexpr std::size_t kPages = 128;
// A client's patience is the lease on its request tuple, which outlives the
// request's take (ROADMAP item 1); 1 s of virtual time lets that leaked
// population reach its steady size during the catalogue warm-up.
constexpr transport::Duration kPatience = transport::seconds(1);
constexpr transport::Duration kMaxTtl = transport::seconds(60);
constexpr std::uint64_t kFingerprintOps = 2048;
constexpr std::size_t kReplayOps = 1 << 14;
// Events the timed loop fires between two looks at the wall clock.
constexpr int kStepChunk = 64;

class WebRequest final : public Workload {
 public:
  explicit WebRequest(std::uint64_t seed) : seed_(seed), gen_(seed) {
    SeededRng content(seed ^ 0x5eedf00dull);
    for (std::size_t i = 0; i < kPages; ++i) {
      urls_.push_back("http://origin/page/" + std::to_string(i));
      std::string body(896 + content.below(256), ' ');
      for (char& ch : body) ch = static_cast<char>('a' + content.below(26));
      pages_.push_back(std::move(body));
    }
  }

  ~WebRequest() override { reset(); }

  void setup(Tracer* tracer) override {
    reset();
    tracer_ = tracer;
    world_ = std::make_unique<SimWorld>(seed_, tracer);
    gen_ = SeededRng(seed_);
    for (int p = 0; p < kProxies; ++p) {
      proxy_nodes_.push_back(
          make_instance(world_->tx(), "proxy-" + std::to_string(p), kMaxTtl, tracer));
    }
    // The origin's (zero-latency) fetches run on the first proxy's timers.
    origin_ = std::make_unique<web::OriginServer>(
        world_->tx().timers(proxy_nodes_[0]->node()), 0);
    for (std::size_t i = 0; i < kPages; ++i) origin_->add_page(urls_[i], pages_[i]);
    for (auto& n : proxy_nodes_) {
      proxies_.push_back(std::make_unique<web::ProxyServer>(*n, *origin_));
      proxies_.back()->start();
    }
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<Client>());
      Client& cl = *clients_.back();
      cl.inst = make_instance(world_->tx(), "client-" + std::to_string(c), kMaxTtl, tracer);
      cl.web = std::make_unique<web::WebClient>(*cl.inst);
      cl.warm_next = static_cast<std::size_t>(c) * kPages / kClients;
    }
    // Warm-up: every client fetches the whole catalogue once.
    TimedResult warmup;
    result_ = &warmup;
    timed_ = false;
    running_ = true;
    for (auto& c : clients_) fetch(*c);
    world_->sim_tx.wait_until([&] { return idle(); }, transport::kNever);
    if (!warmup.correct || warmup.failed != 0 || !idle()) {
      setup_error_ = "the catalogue warm-up failed";
    }
    result_ = nullptr;
  }

  TimedResult run(double seconds, int windows) override {
    TimedResult r;
    r.windows.resize(static_cast<std::size_t>(windows));
    if (!setup_error_.empty()) r.fail(setup_error_);
    result_ = &r;
    timed_ = true;
    running_ = true;
    const LayerCounts c0 = counts();
    const AllocCounts a0 = alloc_counts();
    start_recording(tracer_);
    const std::int64_t t0 = now_ns();
    const std::int64_t window_ns = static_cast<std::int64_t>(seconds * 1e9) / windows;
    std::int64_t w_start = t0;
    double w_cpu = process_cpu_s();
    std::uint64_t w_prev = 0;
    latency_ = tiamat::obs::QuantileSketch{};
    for (auto& c : clients_) fetch(*c);
    for (int w = 0; w < windows;) {
      {
        Tracer::Span s(tracer_, SpanName::kDrive);
        for (int i = 0; i < kStepChunk; ++i) world_->queue.step();
      }
      const std::int64_t t = now_ns();
      if (t - t0 >= window_ns * (w + 1)) {
        const double cpu = process_cpu_s();
        close_window(r, w, w_start, t, w_cpu, cpu, completed_ - w_prev);
        finish_latency(r.windows[static_cast<std::size_t>(w)], latency_);
        w_start = t;
        w_cpu = cpu;
        w_prev = completed_;
        ++w;
      }
    }
    r.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    stop_recording(tracer_, a0, r);
    LayerCounts end = counts();
    for (auto& c : clients_) end.lease_active_end += c->inst->leases().active();
    for (auto& p : proxy_nodes_) end.lease_active_end += p->leases().active();
    r.layers = delta(end, c0);
    // Let the requests in flight finish; they are checked like the rest.
    running_ = false;
    world_->sim_tx.wait_until([&] { return idle(); }, transport::kNever);
    check_end(r);
    if (world_->traced) r.captured = world_->traced->take_captured();
    result_ = nullptr;
    return r;
  }

  SpaceReplay space_replay() const override {
    SpaceReplay s;
    SeededRng gen(seed_);
    for (std::size_t k = 0; k < kReplayOps; ++k) {
      const std::size_t page = static_cast<std::size_t>(gen.below(kPages));
      const auto id = static_cast<std::int64_t>(k + 1);
      s.ops.emplace_back(Tuple{web::kReqTag, id, urls_[page]},
                         Pattern{web::kReqTag, any_int(), any_string()});
      s.ops.emplace_back(Tuple{web::kRespTag, id, pages_[page]},
                         Pattern{web::kRespTag, id, any_string()});
    }
    return s;
  }

  void reset() override {
    clients_.clear();
    proxies_.clear();
    origin_.reset();
    proxy_nodes_.clear();
    world_.reset();
    setup_error_.clear();
    completed_ = 0;
    next_op_ = 0;
  }

 private:
  struct Client {
    std::unique_ptr<tiamat::core::Instance> inst;
    std::unique_ptr<web::WebClient> web;
    std::size_t warm_next = 0;
    std::size_t warm_done = 0;
    std::size_t page = 0;
    std::int64_t start_ns = 0;
    transport::Time start_sim = 0;
    bool busy = false;
  };

  LayerCounts counts() {
    std::vector<tiamat::core::Instance*> all;
    for (auto& p : proxy_nodes_) all.push_back(p.get());
    for (auto& c : clients_) all.push_back(c->inst.get());
    LayerCounts l = registry_counts(all);
    const tiamat::sim::NetStats& s = world_->net.stats();
    l.msgs = s.unicasts_sent + s.multicasts_sent;
    l.bytes = s.bytes_sent;
    return l;
  }

  bool idle() const {
    for (const auto& c : clients_) {
      if (c->busy) return false;
    }
    return true;
  }

  void fetch(Client& c) {
    if (timed_) {
      c.page = static_cast<std::size_t>(gen_.below(kPages));
    } else {
      if (c.warm_done == kPages) {
        c.busy = false;
        return;
      }
      c.page = (c.warm_next + c.warm_done++) % kPages;
    }
    c.busy = true;
    const std::uint64_t k = next_op_++;
    ++result_->attempted;
    c.start_ns = now_ns();
    c.start_sim = world_->queue.now();
    Tracer::Span s(tracer_, SpanName::kCall, kKindGet, k);
    c.web->get(
        urls_[c.page],
        [this, &c](std::optional<std::string> body) { done(c, std::move(body)); },
        kPatience);
  }

  void done(Client& c, std::optional<std::string> body) {
    TimedResult& r = *result_;
    record(latency_, now_ns() - c.start_ns);
    if (timed_) {
      record(r.transport_latency_us, world_->queue.now() - c.start_sim);
    }
    if (!body) {
      ++r.failed;  // timeout or 404
    } else if (*body != pages_[c.page]) {
      r.fail("a body differs from the catalogue page of its URL");
    }
    if (timed_ && ++completed_ == kFingerprintOps) r.fingerprint = fingerprint();
    if (running_) {
      fetch(c);
    } else {
      c.busy = false;
    }
  }

  std::vector<std::int64_t> fingerprint() {
    const LayerCounts l = counts();
    std::int64_t active = 0;
    for (auto& c : clients_) active += static_cast<std::int64_t>(c->inst->leases().active());
    return {world_->queue.now(),
            static_cast<std::int64_t>(result_->transport_latency_us.p50()),
            static_cast<std::int64_t>(l.msgs),
            static_cast<std::int64_t>(l.bytes),
            static_cast<std::int64_t>(l.lease_granted),
            static_cast<std::int64_t>(l.match_candidates),
            static_cast<std::int64_t>(l.waiters_candidates),
            static_cast<std::int64_t>(l.probes),
            active};
  }

  // Every request got its answer exactly once: the clients' counters agree
  // and no response tuple is left behind in a client's space.
  void check_end(TimedResult& r) {
    for (const auto& c : clients_) {
      const web::WebClient::Stats& s = c->web->stats();
      if (s.completed + s.failed != s.issued) {
        r.fail("a client issued a request that never completed");
      }
      if (c->inst->local_space().count_matches(
              Pattern{web::kRespTag, any_int(), any_string()}) != 0) {
        r.fail("a response was left undelivered in a client's space");
      }
    }
  }

  const std::uint64_t seed_;
  SeededRng gen_;
  std::vector<std::string> urls_;
  std::vector<std::string> pages_;
  Tracer* tracer_ = nullptr;
  std::unique_ptr<SimWorld> world_;
  std::vector<std::unique_ptr<tiamat::core::Instance>> proxy_nodes_;
  std::unique_ptr<web::OriginServer> origin_;
  std::vector<std::unique_ptr<web::ProxyServer>> proxies_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::string setup_error_;
  TimedResult* result_ = nullptr;
  bool timed_ = false;
  bool running_ = false;
  tiamat::obs::QuantileSketch latency_;  ///< ns, the current window's requests
  std::uint64_t completed_ = 0;
  std::uint64_t next_op_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_web_request(std::uint64_t seed) {
  return std::make_unique<WebRequest>(seed);
}

}  // namespace perfbench
