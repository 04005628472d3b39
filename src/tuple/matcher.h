// The matching engine's compiled-pattern layer.
//
// Tuple matching is the hot path of every Linda operation, and before this
// engine existed it was implemented four different ways (ordered-map index
// buckets, linear waiter lists, per-baseline replica scans, field-by-field
// Pattern::matches with no precomputation). Everything now funnels through
// two shared pieces:
//
//   CompiledPattern — a pattern with its match plan precomputed: arity,
//     leading-actual key, the list of field positions that actually need
//     checking (wildcards are dropped at compile time) and the rest mask of
//     its actuals past the key. Candidacy is rejected on arity without
//     walking fields; bucket probes skip re-checking the key field.
//
//   field_bit / rest_signature — the slot-signature digest. Each field past
//     the key sets one of 64 bits, chosen by a digest of its position, type
//     and value. TupleIndex stores a tuple's rest_signature beside its
//     bucket slot; a keyed probe skips a slot whose signature lacks a bit of
//     the pattern's rest mask without reading the tuple. The contract is
//     one-sided: equal values set equal bits (-0.0 and +0.0 too), so a
//     skipped slot can never match; distinct values may share a bit, and
//     matches_rest still decides every slot that passes. Strings and blobs
//     are digested from their length and their first and last 8 bytes, so
//     a KiB page body costs O(1).
//
//   MatchMetrics — the engine's probe/scan accounting, shared by TupleIndex
//     and WaiterIndex. It lives only in registry instruments: bind_metrics()
//     points an index at an obs::Registry, and instance snapshots,
//     BENCH_*.json, benches and tests all read bucket-probe vs
//     full-scan-fallback ratios and a rejections-per-lookup sketch from
//     there. An unbound index counts nothing.

#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "tuple/pattern.h"
#include "tuple/tuple.h"

namespace tiamat::tuples {

/// The one bit that value `v` at field position `pos` sets in a slot
/// signature. Equal values at the same position set the same bit.
std::uint64_t field_bit(std::size_t pos, const Value& v);

/// OR of field_bit over `t`'s fields past the key (positions 1..arity-1).
std::uint64_t rest_signature(const Tuple& t);

/// A Pattern plus its precomputed match plan. Cheap to copy relative to the
/// pattern it wraps (one extra small vector); built once per operation or
/// per registered waiter, then reused against every candidate tuple.
class CompiledPattern {
 public:
  CompiledPattern() = default;
  explicit CompiledPattern(Pattern p);

  const Pattern& pattern() const { return pattern_; }
  std::size_t arity() const { return pattern_.fields().size(); }

  /// True when the first field is an actual: the pattern probes the
  /// (arity, first-field) bucket instead of scanning.
  bool keyed() const { return keyed_; }
  /// The leading actual. Only meaningful when keyed().
  const Value& key() const { return pattern_.fields()[0].actual(); }

  /// True when every field is a wildcard: any tuple of the right arity
  /// matches, so the engine can skip per-field checks entirely.
  bool match_all() const { return checks_.empty(); }

  /// OR of field_bit over the actual fields past the key. Every tuple that
  /// matches has all of these bits in its rest_signature; 0 (no actual past
  /// the key) passes every slot.
  std::uint64_t rest_mask() const { return rest_mask_; }

  /// Full match: arity gate, then only the precompiled non-wildcard checks.
  bool matches(const Tuple& t) const {
    if (t.arity() != arity()) return false;
    for (std::uint32_t i : checks_) {
      if (!pattern_.fields()[i].matches(t[i])) return false;
    }
    return true;
  }

  /// Match for bucket-probe candidates: the caller guarantees arity and
  /// first-field equality (that is what the bucket key means), so the key
  /// field's equality check is skipped.
  bool matches_rest(const Tuple& t) const {
    for (std::uint32_t i : checks_) {
      if (i == 0 && keyed_) continue;
      if (!pattern_.fields()[i].matches(t[i])) return false;
    }
    return true;
  }

 private:
  Pattern pattern_;
  std::vector<std::uint32_t> checks_;  ///< non-wildcard field positions
  std::uint64_t rest_mask_ = 0;
  bool keyed_ = false;
};

/// Probe/scan accounting shared by TupleIndex and WaiterIndex, kept only in
/// registry instruments under `prefix` ("match" for tuple storage,
/// "waiters" for the waiter index):
///   <prefix>.bucket_probes        keyed lookups: one bucket visited
///   <prefix>.scan_fallbacks       unkeyed lookups: whole shard walked
///   <prefix>.candidates           tuples/waiters examined
///   <prefix>.rejected             examined but failed to match
///   <prefix>.rejected_per_lookup  one sample per counted lookup
/// Null until bind(): an unbound engine counts nothing, and every hook
/// tolerates that state.
class MatchMetrics {
 public:
  void bind(obs::Registry& r, const std::string& prefix) {
    probes_ = &r.counter(prefix + ".bucket_probes");
    scans_ = &r.counter(prefix + ".scan_fallbacks");
    candidates_ = &r.counter(prefix + ".candidates");
    rejected_ = &r.counter(prefix + ".rejected");
    rejected_per_op_ = &r.sketch(prefix + ".rejected_per_lookup");
  }

  void on_probe() const {
    if (probes_ != nullptr) probes_->add();
  }
  void on_scan() const {
    if (scans_ != nullptr) scans_->add();
  }
  void on_lookup_done(std::uint64_t examined, std::uint64_t rejected) const {
    if (candidates_ != nullptr) candidates_->add(examined);
    if (rejected_ != nullptr) rejected_->add(rejected);
    if (rejected_per_op_ != nullptr) {
      rejected_per_op_->observe(static_cast<double>(rejected));
    }
  }

 private:
  obs::Counter* probes_ = nullptr;
  obs::Counter* scans_ = nullptr;
  obs::Counter* candidates_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::QuantileSketch* rejected_per_op_ = nullptr;
};

}  // namespace tiamat::tuples
