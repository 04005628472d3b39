// The matching engine's compiled-pattern layer.
//
// Tuple matching is the hot path of every Linda operation, and before this
// engine existed it was implemented four different ways (ordered-map index
// buckets, linear waiter lists, per-baseline replica scans, field-by-field
// Pattern::matches with no precomputation). Everything now funnels through
// two shared pieces:
//
//   CompiledPattern — a pattern with its match plan precomputed: arity,
//     leading-actual key (and that key's hash), a field-kind signature, and
//     the list of field positions that actually need checking (wildcards are
//     dropped at compile time). Candidacy is rejected on arity/signature
//     without walking fields; bucket probes skip re-checking the key field.
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
  /// Precomputed hash of key(); saves rehashing on every bucket probe.
  std::size_t key_hash() const { return key_hash_; }

  /// 3 bits of Field::Kind per field (fields past 20 are not encoded).
  /// Two patterns with different signatures can never have identical match
  /// plans; used for cheap pattern comparison and engine diagnostics.
  std::uint64_t kind_signature() const { return signature_; }

  /// True when every field is a wildcard: any tuple of the right arity
  /// matches, so the engine can skip per-field checks entirely.
  bool match_all() const { return checks_.empty(); }

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
  std::uint64_t signature_ = 0;
  std::size_t key_hash_ = 0;
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
