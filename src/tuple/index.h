// Indexed tuple storage — the storage half of the matching engine.
//
// Spaces index tuples by (arity, first field): Linda programs almost always
// key tuples with a leading string/int tag ("req", "resp", "task", ...), so
// a keyed pattern probes one hash bucket instead of scanning the space.
// Unkeyed patterns fall back to walking the per-arity id list.
//
// A bucket slot points at its tuple's by_id_ entry (std::map nodes keep
// their address until erased), so a keyed probe reads each candidate's id
// and tuple with one load rather than an O(log n) tree walk per candidate.
// Beside the pointer a slot keeps its tuple's rest_signature (matcher.h),
// computed once at insert: a keyed probe skips a slot that lacks a bit of
// the pattern's rest mask before reading its entry, and a bucket of 64
// tuples that share a tag but differ in an id field costs one slot-array
// walk instead of 64 node reads. A skipped slot still counts as an
// examined, rejected candidate, so the "match.*" accounting and the
// candidate order are those of an unfiltered walk.
// The shard-wide id list keeps plain ids: every erase binary-searches it
// across the whole arity, and pointer slots there would add a random node
// read per search step. Because slots point into by_id_, the index is
// move-only (map moves keep node addresses; a copy would not).
//
// Determinism contract (select_match and the seed tests depend on it):
// every lookup visits candidates in ascending id order — keyed probes walk
// a sorted-vector bucket, unkeyed scans walk the arity shard's sorted id
// list — so two runs with the same seed always see the same candidate
// sequence even though the buckets themselves live in unordered_maps.
//
// Accounting: bind_metrics() attaches the index to a registry whose
// "match.*" instruments are the only record of its probes, scans and
// candidates (MatchMetrics, matcher.h). An unbound index counts nothing.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "audit/audit.h"
#include "tuple/matcher.h"
#include "tuple/pattern.h"
#include "tuple/tuple.h"

namespace tiamat::tuples {

/// Identifies a stored tuple within one space for the lifetime of a run.
using TupleId = std::uint64_t;
inline constexpr TupleId kNoTuple = 0;

class TupleIndex {
 public:
  TupleIndex() = default;
  TupleIndex(const TupleIndex&) = delete;
  TupleIndex& operator=(const TupleIndex&) = delete;
  TupleIndex(TupleIndex&&) = default;
  TupleIndex& operator=(TupleIndex&&) = default;

  /// Stores `t` under caller-supplied id (ids must be unique and non-zero).
  void insert(TupleId id, Tuple t);

  /// Removes by id; returns the tuple if it was present.
  std::optional<Tuple> erase(TupleId id);

  const Tuple* get(TupleId id) const;
  bool contains(TupleId id) const { return by_id_.contains(id); }

  /// Ids of all stored tuples matching `p`, in ascending id order (the
  /// caller applies its own selection policy). `limit` == 0 means no limit.
  std::vector<TupleId> find_matches(const Pattern& p,
                                    std::size_t limit = 0) const;
  std::vector<TupleId> find_matches(const CompiledPattern& p,
                                    std::size_t limit = 0) const;

  /// First match in candidate order, if any — short-circuits after one
  /// match instead of materializing a vector.
  std::optional<TupleId> find_first(const Pattern& p) const;
  std::optional<TupleId> find_first(const CompiledPattern& p) const;

  /// Number of matches, without materializing ids.
  std::size_t count_matches(const Pattern& p) const;
  std::size_t count_matches(const CompiledPattern& p) const;

  /// Visits matches in ascending id order until `fn` returns false.
  /// The baselines use this for filtered first-match lookups (e.g. L²imbo's
  /// owner-restricted take) without materializing the full match set.
  template <typename Fn>  // Fn: (TupleId, const Tuple&) -> bool keep_going
  void for_each_match(const CompiledPattern& p, Fn&& fn) const {
    lookup(p, [&](TupleId id, const Tuple& t) { return fn(id, t); });
  }

  std::size_t size() const { return by_id_.size(); }
  bool empty() const { return by_id_.empty(); }

  /// Sum of footprints of stored tuples; the storage figure leases charge.
  std::size_t total_footprint() const { return footprint_; }

  /// Approximate resident bytes: stored tuple footprints plus a fixed
  /// per-entry estimate of index overhead (by_id_ map node, shard id slot,
  /// bucket slot). Deliberately a deterministic formula over entry counts —
  /// the telemetry layer samples it into gauges, so it must not depend on
  /// allocator behaviour.
  std::size_t approx_bytes() const {
    return footprint_ + by_id_.size() * kApproxEntryOverhead;
  }
  static constexpr std::size_t kApproxEntryOverhead = 64;

  /// Visits every (id, tuple) in ascending id order.
  void for_each(const std::function<void(TupleId, const Tuple&)>& fn) const;

  /// Engine accounting: bucket probes vs scan fallbacks, candidates
  /// examined/rejected, counted only in `r` under "match.*" (MatchMetrics).
  /// An unbound index counts nothing.
  void bind_metrics(obs::Registry& r) { metrics_.bind(r, "match"); }

#if TIAMAT_AUDIT_ENABLED
  /// Full structural re-verification (audit builds only): every stored
  /// tuple in its arity shard's id list and — for arity > 0 — in exactly
  /// one bucket whose key equals (and hashes equal to) the tuple's first
  /// field, under a slot whose signature is its rest_signature; all id
  /// vectors strictly ascending; footprint accounting exact. Traps through
  /// audit::fail on violation.
  void audit_check(const char* checkpoint) const;

  /// Test hook: removes `id` from its shard bucket while leaving it in
  /// by_id_ and the shard id list, manufacturing a bucket-membership
  /// violation for the corruption-trap tests. Given a stored `retarget`,
  /// points id's bucket slot at retarget's entry instead of removing it.
  void audit_corrupt_bucket_for_test(TupleId id, TupleId retarget = kNoTuple);

  /// Test hook: clears the signature of id's bucket slot, so a keyed probe
  /// with an actual past the key would skip the stored tuple.
  void audit_corrupt_signature_for_test(TupleId id);

 private:
  /// Differential oracle: re-runs a keyed find_matches as a linear scan of
  /// by_id_ and traps if the bucket probe returned a different id sequence.
  void audit_differential(const CompiledPattern& p,
                          const std::vector<TupleId>& got,
                          std::size_t limit) const;

 public:
#endif

 private:
  using Entry = std::map<TupleId, Tuple>::value_type;

  /// A keyed bucket's slot: the tuple's by_id_ entry and its
  /// rest_signature.
  struct Slot {
    const Entry* entry;
    std::uint64_t signature;
  };

  // One shard per arity: hash buckets by first field for keyed probes, plus
  // the shard-wide ascending id list for deterministic unkeyed scans.
  // Bucket slots are kept sorted by id; ids arrive mostly in increasing
  // order (spaces allocate them monotonically) so inserts are usually an
  // amortized-O(1) push_back.
  struct Shard {
    std::unordered_map<Value, std::vector<Slot>, ValueHash> buckets;
    std::vector<TupleId> ids;
  };

  /// Shared lookup core: visits matching ids ascending until `fn` says
  /// stop. Records probe/scan + candidate accounting.
  template <typename Fn>  // Fn: (TupleId, const Tuple&) -> bool keep_going
  void lookup(const CompiledPattern& p, Fn&& fn) const;

  std::map<TupleId, Tuple> by_id_;
  std::unordered_map<std::size_t, Shard> shards_;  // by arity
  std::size_t footprint_ = 0;
  MatchMetrics metrics_;
};

template <typename Fn>
void TupleIndex::lookup(const CompiledPattern& p, Fn&& fn) const {
  auto sit = shards_.find(p.arity());
  if (sit == shards_.end()) return;
  const Shard& shard = sit->second;

  std::uint64_t examined = 0;
  std::uint64_t rejected = 0;
  auto done = [&] { metrics_.on_lookup_done(examined, rejected); };

  if (p.keyed()) {
    metrics_.on_probe();
    auto bit = shard.buckets.find(p.key());
    if (bit != shard.buckets.end()) {
      const std::uint64_t mask = p.rest_mask();
      for (const Slot& s : bit->second) {
        ++examined;
        // Bucket membership already proves arity and first-field equality;
        // a signature missing a mask bit proves an actual past the key
        // differs, without reading the entry.
        if ((s.signature & mask) != mask || !p.matches_rest(s.entry->second)) {
          ++rejected;
          continue;
        }
        if (!fn(s.entry->first, s.entry->second)) break;
      }
    }
    done();
    return;
  }

  metrics_.on_scan();
  for (TupleId id : shard.ids) {
    ++examined;
    const Tuple& t = by_id_.find(id)->second;
    if (!p.matches(t)) {
      ++rejected;
      continue;
    }
    if (!fn(id, t)) break;
  }
  done();
}

}  // namespace tiamat::tuples
