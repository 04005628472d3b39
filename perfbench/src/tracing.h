// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into the system and around the calls the system makes into the
// benchmark's decorators (transport, timers, lease policy), plus
// allocation counting. Nothing here reaches into src/: every span is opened
// by benchmark code at a layer boundary.
//
// A span's self time is its duration minus the part its child spans cover.
// Spans on one thread nest strictly, so that part is the sum of the direct
// children's durations; the recorder folds each finished span into per
// (name, kind) totals as it closes, so a run of any length keeps a fixed
// amount of memory. The first spans of every thread are also kept raw for
// the Chrome trace-event export.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::int64_t now_ns();

// ---- Allocation counting ----------------------------------------------------
// The perfbench binary replaces the global operator new (alloc_count.cc) and
// reports every allocation here; other binaries linking this library simply
// never call note_alloc.

struct AllocCounts {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

void set_alloc_counting(bool on);
AllocCounts alloc_counts();
void note_alloc(std::size_t bytes);

/// While alive, allocations made by this thread are not counted: the
/// tracer's own buffers and wrappers are not the program's allocations.
class AllocPause {
 public:
  AllocPause();
  ~AllocPause();
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;
};

// ---- Spans --------------------------------------------------------------------

enum class SpanName : std::uint8_t {
  kCall,      ///< a workload call into Instance / WebClient      -> core.call
  kDeliver,   ///< a bound delivery handler                       -> core.serve
  kCallback,  ///< a timer or posted closure                      -> core.callback
  kOffer,     ///< LeasePolicy::offer                              -> lease.offer
  kSend,      ///< Transport::send                                 -> transport.send
  kMulticast, ///< Transport::multicast                            -> transport.send
  kPost,      ///< Transport::post                                 -> transport.send
  kSchedule,  ///< TimerService::schedule_at                       -> transport.timer
  kCancel,    ///< TimerService::cancel                            -> transport.timer
  kDrive,     ///< the benchmark stepping the sim event queue      -> transport.drive
};
inline constexpr int kSpanNames = 10;
const char* span_name(SpanName n);

/// A span's kind: a wire message type (1..23) for send/deliver spans, one
/// of the call kinds below for workload calls, 0 otherwise. A span of kind
/// 0 inherits its parent's kind, so e.g. the posts made while handling an
/// OpResponse are totalled under that message type.
inline constexpr int kKinds = 32;
inline constexpr std::uint8_t kKindOut = 24;
inline constexpr std::uint8_t kKindInp = 25;
inline constexpr std::uint8_t kKindGet = 26;
std::uint8_t kind_of_message(std::uint16_t type);

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t dur_ns = 0;
  std::int64_t self_ns = 0;
  SpanTotals& operator+=(const SpanTotals& o) {
    count += o.count;
    dur_ns += o.dur_ns;
    self_ns += o.self_ns;
    return *this;
  }
};

/// One raw span, kept for the Chrome export. `parent` indexes the same
/// thread's kept spans (-1 for a root or an unkept parent).
struct SpanRecord {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  SpanName name = SpanName::kCall;
  std::uint8_t kind = 0;
  std::uint64_t op = 0;
};

class Tracer {
 public:
  using ClockFn = std::int64_t (*)();

  explicit Tracer(ClockFn clock = now_ns);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Spans open only while recording; a span opened while off stays a
  /// no-op even if recording starts before it closes.
  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  bool recording() const { return recording_.load(std::memory_order_relaxed); }
  std::int64_t now() const { return clock_(); }

  /// RAII span on the calling thread; a null tracer makes it a no-op, so
  /// untraced runs execute the same workload code.
  class Span {
   public:
    Span(Tracer* t, SpanName n, std::uint8_t kind = 0, std::uint64_t op = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* t_ = nullptr;
  };

  /// Totals over every thread. Call only once the traced threads are idle.
  SpanTotals totals(SpanName n, int kind) const;
  SpanTotals totals(SpanName n) const;
  /// Sum of every span's self time: the time covered by root spans.
  std::int64_t total_self_ns() const;

  /// Writes the kept spans as Chrome trace-event JSON (loads in Perfetto).
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Frame {
    std::int64_t start;
    std::int64_t child_ns;
    std::int32_t record;
    SpanName name;
    std::uint8_t kind;
  };
  struct ThreadSlot {
    int tid = 0;
    std::vector<Frame> stack;
    std::array<SpanTotals, kSpanNames * kKinds> totals{};
    std::vector<SpanRecord> kept;
  };

  ThreadSlot& slot();
  void begin(SpanName n, std::uint8_t kind, std::uint64_t op);
  void end();

  const ClockFn clock_;
  const std::uint64_t id_;
  std::atomic<bool> recording_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSlot>> slots_;  // guarded by mu_
};

}  // namespace perfbench
