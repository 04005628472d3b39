// local_pair: one sim instance, one caller. Each op is a keyed out followed
// by an inp that must return the tuple just written. The space holds a
// resident set larger than L2 (640 tags x 64 long-leased tuples); the pairs
// use one of those tags, so every lookup scans a bucket of 64 other keys.
// The sim posts synchronously and nothing is sent: core, lease, space and
// tuple do the work, net and transport none.
//
// An out keeps its lease until the TTL ends even after its tuple is taken,
// so after every batch the timed loop advances the sim clock by one out-lease
// TTL: those leases then expire inside the timed section at a fixed rate
// and their population stays bounded by one batch.

#include <string>

#include "common.h"

namespace perfbench {
namespace {

using tiamat::core::ReadResult;
using tiamat::core::Status;
using tiamat::lease::FlexibleRequester;
using tiamat::tuples::any_int;
using tiamat::tuples::Pattern;
using tiamat::tuples::Tuple;
namespace transport = tiamat::transport;

constexpr int kTags = 640;
constexpr int kPerTag = 64;
constexpr int kBatch = 256;
constexpr int kWarmupBatches = 64;
constexpr transport::Duration kOutTtl = transport::seconds(1);
// Longer than any run's virtual time (one out TTL per batch).
constexpr transport::Duration kResidentTtl = transport::seconds(1'000'000'000);
constexpr std::uint64_t kFingerprintOps = 64 * kBatch;
constexpr std::size_t kReplayOps = 1 << 16;
// Pair keys live above every resident key.
constexpr std::int64_t kKeyBase = std::int64_t{1} << 62;

std::string tag_name(int i) { return "tag-" + std::to_string(i); }

class LocalPair final : public Workload {
 public:
  explicit LocalPair(std::uint64_t seed)
      : seed_(seed), gen_(seed), pair_tag_(static_cast<std::size_t>(gen_.below(kTags))) {
    for (int i = 0; i < kTags; ++i) tags_.push_back(tag_name(i));
  }

  void setup(Tracer* tracer) override {
    reset();
    tracer_ = tracer;
    world_ = std::make_unique<SimWorld>(seed_, tracer);
    inst_ = make_instance(world_->tx(), "local", kResidentTtl, tracer);
    gen_ = SeededRng(seed_);
    next_op_ = 0;
    const FlexibleRequester resident{tiamat::lease::for_duration(kResidentTtl)};
    for (const Tuple& t : resident_set()) inst_->out(t, resident);
    TimedResult warmup;
    for (int b = 0; b < kWarmupBatches; ++b) run_batch(warmup);
    latency_ = tiamat::obs::QuantileSketch{};
  }

  TimedResult run(double seconds, int windows) override {
    TimedResult r;
    r.windows.resize(static_cast<std::size_t>(windows));
    const LayerCounts c0 = registry_counts({inst_.get()});
    const AllocCounts a0 = alloc_counts();
    start_recording(tracer_);
    const std::int64_t t0 = now_ns();
    const std::int64_t window_ns =
        static_cast<std::int64_t>(seconds * 1e9) / windows;
    std::int64_t w_start = t0;
    double w_cpu = process_cpu_s();
    std::uint64_t w_ops = 0;
    for (int w = 0; w < windows;) {
      const std::uint64_t before = r.attempted;
      run_batch(r);
      w_ops += r.attempted - before;
      if (r.attempted == kFingerprintOps) r.fingerprint = fingerprint();
      const std::int64_t t = now_ns();
      if (t - t0 >= window_ns * (w + 1)) {
        const double cpu = process_cpu_s();
        close_window(r, w, w_start, t, w_cpu, cpu, w_ops);
        finish_latency(r.windows[static_cast<std::size_t>(w)], latency_);
        w_start = t;
        w_cpu = cpu;
        w_ops = 0;
        ++w;
      }
    }
    r.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    stop_recording(tracer_, a0, r);
    r.layers = delta(registry_counts({inst_.get()}), c0);
    r.layers.lease_active_end = inst_->leases().active();
    check_resident(r);
    return r;
  }

  SpaceReplay space_replay() const override {
    SpaceReplay s;
    s.resident = resident_set();
    SeededRng gen(seed_);
    for (std::size_t k = 0; k < kReplayOps; ++k) {
      const Op op = next(gen, k);
      s.ops.emplace_back(Tuple{tags_[op.tag], op.key, op.seq},
                         Pattern{tags_[op.tag], op.key, any_int()});
    }
    return s;
  }

  void reset() override {
    inst_.reset();
    world_.reset();
  }

 private:
  struct Op {
    std::size_t tag;
    std::int64_t key;
    std::int64_t seq;
  };

  Op next(SeededRng& gen, std::uint64_t k) const {
    Op op;
    op.tag = pair_tag_;
    op.key = kKeyBase + static_cast<std::int64_t>(gen.next() >> 2);
    op.seq = static_cast<std::int64_t>(k);
    return op;
  }

  std::vector<Tuple> resident_set() const {
    std::vector<Tuple> v;
    v.reserve(kTags * kPerTag);
    for (int i = 0; i < kTags * kPerTag; ++i) {
      v.push_back(Tuple{tags_[static_cast<std::size_t>(i % kTags)], std::int64_t{i},
                        std::int64_t{i}});
    }
    return v;
  }

  // One batch of pairs, then one out-lease TTL of virtual time.
  void run_batch(TimedResult& r) {
    for (int i = 0; i < kBatch; ++i) {
      const std::uint64_t k = next_op_++;
      const Op op = next(gen_, k);
      const std::int64_t start = now_ns();
      Status st;
      {
        Tracer::Span s(tracer_, SpanName::kCall, kKindOut, k);
        st = inst_->out(Tuple{tags_[op.tag], op.key, op.seq}, pair_lease_);
      }
      std::optional<ReadResult> got;
      bool fired = false;
      bool granted;
      {
        Tracer::Span s(tracer_, SpanName::kCall, kKindInp, k);
        granted = inst_->inp(
            Pattern{tags_[op.tag], op.key, any_int()},
            [&got, &fired](std::optional<ReadResult> res) {
              got = std::move(res);
              fired = true;
            },
            pair_lease_);
      }
      record(latency_, now_ns() - start);
      ++r.attempted;
      if (st != Status::kOk || !granted || (fired && !got)) {
        ++r.failed;
      } else if (!fired) {
        r.fail("a local inp did not complete synchronously");
      } else if (got->source != inst_->node() || got->tuple.arity() != 3 ||
                 got->tuple[0].as_string() != tags_[op.tag] ||
                 got->tuple[1].as_int() != op.key || got->tuple[2].as_int() != op.seq) {
        r.fail("inp returned a tuple other than the one its out wrote");
      }
    }
    Tracer::Span s(tracer_, SpanName::kDrive);
    world_->queue.run_for(kOutTtl);
  }

  std::vector<std::int64_t> fingerprint() {
    const LayerCounts c = registry_counts({inst_.get()});
    return {world_->queue.now(),
            static_cast<std::int64_t>(c.lease_granted),
            static_cast<std::int64_t>(c.match_candidates),
            static_cast<std::int64_t>(c.match_lookups),
            static_cast<std::int64_t>(c.waiters_candidates),
            static_cast<std::int64_t>(inst_->leases().active()),
            static_cast<std::int64_t>(inst_->local_space().size())};
  }

  // The resident set is intact: every tuple of it, and nothing else besides
  // the instance's own handle tuple.
  void check_resident(TimedResult& r) {
    const tiamat::space::LocalTupleSpace& space = inst_->local_space();
    if (space.size() != static_cast<std::size_t>(kTags * kPerTag) + 1) {
      r.fail("the space does not hold exactly the resident set");
      return;
    }
    for (const std::string& tag : tags_) {
      if (space.count_matches(Pattern{tag, any_int(), any_int()}) !=
          static_cast<std::size_t>(kPerTag)) {
        r.fail("a resident tag lost or gained tuples");
        return;
      }
    }
  }

  const std::uint64_t seed_;
  std::vector<std::string> tags_;
  SeededRng gen_;
  const std::size_t pair_tag_;
  std::uint64_t next_op_ = 0;
  tiamat::obs::QuantileSketch latency_;  ///< ns, the current window's pairs
  Tracer* tracer_ = nullptr;
  // Both halves of a pair lease for one TTL: the out's lease outlives its
  // take, and the released inp lease leaves a cancelled timer behind.
  const FlexibleRequester pair_lease_{tiamat::lease::for_duration(kOutTtl)};
  std::unique_ptr<SimWorld> world_;
  std::unique_ptr<tiamat::core::Instance> inst_;
};

}  // namespace

std::unique_ptr<Workload> make_local_pair(std::uint64_t seed) {
  return std::make_unique<LocalPair>(seed);
}

}  // namespace perfbench
