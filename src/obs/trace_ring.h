// Single-producer / single-consumer trace ring: the per-thread collection
// buffer behind Tracer's concurrent mode (DESIGN.md §13).
//
// Ownership protocol (the flight-recorder pattern, generalized):
//   - exactly one producer thread push()es; the thread registers with the
//     owning Tracer and gets a ring of its own, so no two producers ever
//     share one,
//   - exactly one consumer (Tracer::drain, serialized by the tracer's
//     mutex) drain()s,
//   - a full ring drops the event and counts it — recording never blocks
//     and never overwrites in place (an overwriting MPSC ring cannot be
//     made torn-read-free without widening every slot; bounded loss with an
//     exact dropped() ledger is the honest alternative, and the chaos
//     oracle checks drained == pushed once producers are quiet — drops
//     never enter the ring, so they sit outside that equation).
//
// Slots carry the tracer-wide sequence number stamped at record time; the
// drain merge sorts on (at, seq) so the merged history is deterministic
// given the interleaving that actually happened.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/trace.h"

namespace tiamat::obs {

class TraceRing {
 public:
  struct Entry {
    TraceEvent event;
    std::uint64_t seq = 0;  ///< tracer-wide record order (merge tiebreak)
  };

  explicit TraceRing(std::size_t capacity)
      : slots_(capacity == 0 ? 1 : capacity) {}

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Producer side. Returns false (and counts the drop) when full.
  bool push(const TraceEvent& e, std::uint64_t seq) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    if (h - t >= slots_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slots_[h % slots_.size()] = Entry{e, seq};
    head_.store(h + 1, std::memory_order_release);
    pushed_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Consumer side: appends everything buffered to `out`, oldest first,
  /// and frees the slots. Returns the number of entries moved.
  std::size_t drain(std::vector<Entry>& out) {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    for (std::uint64_t i = t; i != h; ++i) {
      out.push_back(slots_[i % slots_.size()]);
    }
    tail_.store(h, std::memory_order_release);
    return static_cast<std::size_t>(h - t);
  }

  std::uint64_t pushed() const {
    return pushed_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<Entry> slots_;
  std::atomic<std::uint64_t> head_{0};     ///< next write (producer-owned)
  std::atomic<std::uint64_t> tail_{0};     ///< next read (consumer-owned)
  std::atomic<std::uint64_t> pushed_{0};   ///< successful pushes, ever
  std::atomic<std::uint64_t> dropped_{0};  ///< full-ring rejections, ever
};

}  // namespace tiamat::obs
