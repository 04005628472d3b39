#include "tracing.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Allocation counting ----------------------------------------------------

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};
thread_local int t_pause = 0;
}  // namespace

void set_alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

AllocCounts alloc_counts() {
  return {g_calls.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

void note_alloc(std::size_t bytes) {
  if (!g_counting.load(std::memory_order_relaxed) || t_pause != 0) return;
  g_calls.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

AllocPause::AllocPause() { ++t_pause; }
AllocPause::~AllocPause() { --t_pause; }

// ---- Spans --------------------------------------------------------------------

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kCall: return "core.call";
    case SpanName::kDeliver: return "core.serve";
    case SpanName::kCallback: return "core.callback";
    case SpanName::kOffer: return "lease.offer";
    case SpanName::kSend: return "transport.send";
    case SpanName::kMulticast: return "transport.multicast";
    case SpanName::kPost: return "transport.post";
    case SpanName::kSchedule: return "transport.schedule";
    case SpanName::kCancel: return "transport.cancel";
    case SpanName::kDrive: return "transport.drive";
  }
  return "?";
}

std::uint8_t kind_of_message(std::uint16_t type) {
  return type > 0 && type < kKindOut ? static_cast<std::uint8_t>(type) : 0;
}

namespace {
// Spans kept raw per thread for the Chrome export; the totals cover every
// span, kept or not.
constexpr std::size_t kKeepPerThread = 1 << 15;
std::atomic<std::uint64_t> g_next_tracer{1};
struct SlotCache {
  std::uint64_t tracer = 0;
  void* slot = nullptr;
};
thread_local SlotCache t_slot;
}  // namespace

Tracer::Tracer(ClockFn clock) : clock_(clock), id_(g_next_tracer.fetch_add(1)) {}

Tracer::ThreadSlot& Tracer::slot() {
  if (t_slot.tracer == id_) return *static_cast<ThreadSlot*>(t_slot.slot);
  AllocPause pause;
  auto s = std::make_unique<ThreadSlot>();
  s->stack.reserve(64);
  s->kept.reserve(kKeepPerThread);
  ThreadSlot* raw = s.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    raw->tid = static_cast<int>(slots_.size()) + 1;
    slots_.push_back(std::move(s));
  }
  t_slot = SlotCache{id_, raw};
  return *raw;
}

void Tracer::begin(SpanName n, std::uint8_t kind, std::uint64_t op) {
  ThreadSlot& s = slot();
  const std::uint8_t eff = kind != 0 || s.stack.empty() ? kind : s.stack.back().kind;
  std::int32_t record = -1;
  if (s.kept.size() < kKeepPerThread) {
    record = static_cast<std::int32_t>(s.kept.size());
    SpanRecord r;
    r.parent = s.stack.empty() ? -1 : s.stack.back().record;
    r.name = n;
    r.kind = eff;
    r.op = op;
    s.kept.push_back(r);
  }
  const std::int64_t start = clock_();
  if (record >= 0) s.kept[static_cast<std::size_t>(record)].start = start;
  s.stack.push_back(Frame{start, 0, record, n, eff});
}

void Tracer::end() {
  const std::int64_t t = clock_();
  ThreadSlot& s = slot();
  const Frame f = s.stack.back();
  s.stack.pop_back();
  const std::int64_t dur = t - f.start;
  SpanTotals& tot =
      s.totals[static_cast<std::size_t>(f.name) * kKinds + f.kind];
  ++tot.count;
  tot.dur_ns += dur;
  tot.self_ns += dur - f.child_ns;
  if (!s.stack.empty()) s.stack.back().child_ns += dur;
  if (f.record >= 0) s.kept[static_cast<std::size_t>(f.record)].end = t;
}

Tracer::Span::Span(Tracer* t, SpanName n, std::uint8_t kind, std::uint64_t op) {
  if (t == nullptr || !t->recording()) return;
  t_ = t;
  t->begin(n, kind, op);
}

Tracer::Span::~Span() {
  if (t_ != nullptr) t_->end();
}

SpanTotals Tracer::totals(SpanName n, int kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  SpanTotals sum;
  for (const auto& s : slots_) {
    sum += s->totals[static_cast<std::size_t>(n) * kKinds +
                     static_cast<std::size_t>(kind)];
  }
  return sum;
}

SpanTotals Tracer::totals(SpanName n) const {
  SpanTotals sum;
  for (int k = 0; k < kKinds; ++k) sum += totals(n, k);
  return sum;
}

std::int64_t Tracer::total_self_ns() const {
  std::int64_t sum = 0;
  for (int n = 0; n < kSpanNames; ++n) {
    sum += totals(static_cast<SpanName>(n)).self_ns;
  }
  return sum;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t t0 = 0;
  bool have_t0 = false;
  for (const auto& s : slots_) {
    for (const SpanRecord& r : s->kept) {
      if (!have_t0 || r.start < t0) t0 = r.start;
      have_t0 = true;
    }
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const auto& s : slots_) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"name\":\"thread %d\"}}",
                 first ? "" : ",", s->tid, s->tid);
    first = false;
    for (std::size_t i = 0; i < s->kept.size(); ++i) {
      const SpanRecord& r = s->kept[i];
      if (r.end < r.start) continue;  // still open when the run ended
      std::fprintf(f,
                   ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                   "\"kind\":%u,\"op\":%llu}}",
                   span_name(r.name), s->tid,
                   static_cast<double>(r.start - t0) / 1e3,
                   static_cast<double>(r.end - r.start) / 1e3, i, r.parent,
                   static_cast<unsigned>(r.kind),
                   static_cast<unsigned long long>(r.op));
    }
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
