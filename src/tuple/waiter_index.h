// The waiter half of the matching engine: blocked rd/in registrations
// indexed the same way tuples are, so a newly visible tuple probes one
// bucket instead of scanning every blocked waiter.
//
// Keyed waiter patterns (leading actual) live in an (arity, first-field)
// hash bucket; unkeyed patterns go to a single overflow bucket that every
// insert must still consult. Waiter ids are caller-allocated and strictly
// increasing, so "ascending id" is exactly registration order — candidate
// lists are produced in FIFO order ("oldest waiter wins") by merging two
// sorted vectors.
//
// The index deliberately does not invoke callbacks itself: offer paths are
// re-entrant (a satisfied waiter's callback may immediately issue the next
// operation), so callers collect candidates first, extract the winners, and
// only then fire callbacks — the same discipline the pre-engine linear
// lists used.

#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "tuple/matcher.h"
#include "tuple/tuple.h"
#include "tuple/value.h"

#if TIAMAT_AUDIT_ENABLED
#include <sstream>
#endif

namespace tiamat::tuples {

template <typename W>
class WaiterIndex {
 public:
  struct Extracted {
    CompiledPattern pattern;
    W payload;
  };

  /// Registers a waiter. `id` must be non-zero, unique, and greater than
  /// every id added before it (FIFO order == ascending id).
  void add(std::uint64_t id, CompiledPattern p, W payload) {
    if (p.keyed()) {
      buckets_[p.arity()][p.key()].push_back(id);
    } else {
      overflow_.push_back(id);
    }
    entries_.emplace(id, Entry{std::move(p), std::move(payload)});
  }

  /// Removes a waiter and hands back its pattern + payload.
  std::optional<Extracted> extract(std::uint64_t id) {
    auto it = entries_.find(id);
    if (it == entries_.end()) return std::nullopt;
    Extracted out{std::move(it->second.pattern), std::move(it->second.payload)};
    unindex(id, out.pattern);
    entries_.erase(it);
    return out;
  }

  bool contains(std::uint64_t id) const { return entries_.contains(id); }

  W* payload(std::uint64_t id) {
    auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : &it->second.payload;
  }

  const CompiledPattern* pattern_of(std::uint64_t id) const {
    auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : &it->second.pattern;
  }

  /// Ids of waiters whose bucket covers `t`, oldest first: the keyed
  /// (arity, first-field) bucket merged with the unkeyed overflow (filtered
  /// to the tuple's arity). Candidacy, not a full match — the caller still
  /// applies pattern_of(id)->matches(t) (or matches_rest for keyed ones);
  /// the index only guarantees no waiter outside the list can match.
  std::vector<std::uint64_t> candidates(const Tuple& t) const {
    std::uint64_t examined = 0;
    std::uint64_t skipped = 0;
    std::span<const std::uint64_t> keyed;
    if (t.arity() > 0) {
      auto ait = buckets_.find(t.arity());
      if (ait != buckets_.end()) {
        auto bit = ait->second.find(t[0]);
        if (bit != ait->second.end()) keyed = bit->second;
      }
    }
    metrics_.on_probe();

    std::vector<std::uint64_t> out;
    out.reserve(keyed.size() + overflow_.size());
    auto kit = keyed.begin();
    for (std::uint64_t oid : overflow_) {
      const Entry& e = entries_.find(oid)->second;
      ++examined;
      if (e.pattern.arity() != t.arity()) {
        ++skipped;
        continue;  // wrong arity can never match
      }
      while (kit != keyed.end() && *kit < oid) out.push_back(*kit++);
      out.push_back(oid);
    }
    out.insert(out.end(), kit, keyed.end());
    examined += keyed.size();
    metrics_.on_lookup_done(examined, skipped);
    return out;
  }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  std::size_t overflow_size() const { return overflow_.size(); }

  /// Approximate resident bytes: inline entry size plus a fixed per-entry
  /// estimate of map-node and bucket overhead. A deterministic formula over
  /// entry counts (see TupleIndex::approx_bytes) sampled into gauges by the
  /// telemetry layer.
  std::size_t approx_bytes() const {
    return entries_.size() * (sizeof(Entry) + kApproxEntryOverhead) +
           overflow_.size() * sizeof(std::uint64_t);
  }
  static constexpr std::size_t kApproxEntryOverhead = 56;

  /// Visits every waiter oldest-first (tests / teardown).
  template <typename Fn>  // Fn: (std::uint64_t id, W& payload)
  void for_each(Fn&& fn) {
    for (auto& [id, e] : entries_) fn(id, e.payload);
  }

  /// Offer accounting, counted only in `r` under "waiters.*"
  /// (MatchMetrics): every offer is one bucket probe, examines the keyed
  /// bucket plus the whole overflow, and rejects overflow waiters of
  /// another arity. An unbound index counts nothing.
  void bind_metrics(obs::Registry& r) { metrics_.bind(r, "waiters"); }

#if TIAMAT_AUDIT_ENABLED
  /// Full structural re-verification (audit builds only): every waiter in
  /// exactly one keyed bucket or the overflow per its pattern's keyed();
  /// all id vectors strictly ascending, so the two-way candidates() merge
  /// stays FIFO-monotonic; precomputed key hashes consistent. Traps
  /// through audit::fail on violation.
  void audit_check(const char* checkpoint) const {
    auto trap = [&](const std::string& invariant, const std::string& detail) {
      std::ostringstream os;
      os << detail << " | waiters " << entries_.size() << ", overflow "
         << overflow_.size();
      audit::fail("WaiterIndex", checkpoint, invariant, os.str());
    };
    auto ascending = [](const std::vector<std::uint64_t>& v) {
      return std::adjacent_find(v.begin(), v.end(),
                                std::greater_equal<std::uint64_t>()) ==
             v.end();
    };
    auto member = [](const std::vector<std::uint64_t>& v, std::uint64_t id) {
      return std::binary_search(v.begin(), v.end(), id);
    };

    // Ordering first: the membership checks below binary-search these
    // vectors, so an unsorted list must trap as itself rather than as a
    // bogus membership miss.
    if (!ascending(overflow_)) {
      trap("fifo-monotonic", "overflow id list not strictly ascending");
      return;
    }
    for (const auto& [arity, by_key] : buckets_) {
      for (const auto& [key, ids] : by_key) {
        if (ids.empty()) {
          trap("bucket-pruning",
               "empty bucket key=" + key.to_string() + " not pruned");
          return;
        }
        if (!ascending(ids)) {
          std::ostringstream os;
          os << "bucket key=" << key.to_string() << " arity " << arity
             << " id list not strictly ascending";
          trap("fifo-monotonic", os.str());
          return;
        }
      }
    }

    for (const auto& [id, e] : entries_) {
      const CompiledPattern& p = e.pattern;
      if (p.keyed()) {
        bool indexed_here = false;
        auto ait = buckets_.find(p.arity());
        if (ait != buckets_.end()) {
          auto bit = ait->second.find(p.key());
          if (bit != ait->second.end()) indexed_here = member(bit->second, id);
        }
        if (!indexed_here) {
          std::ostringstream os;
          os << "keyed waiter id " << id << " missing from bucket key="
             << p.key().to_string() << " arity " << p.arity();
          trap("bucket-membership", os.str());
          return;
        }
      } else if (!member(overflow_, id)) {
        std::ostringstream os;
        os << "unkeyed waiter id " << id << " missing from overflow";
        trap("bucket-membership", os.str());
        return;
      }
    }

    std::size_t indexed = overflow_.size();
    for (std::uint64_t id : overflow_) {
      auto it = entries_.find(id);
      if (it == entries_.end() || it->second.pattern.keyed()) {
        std::ostringstream os;
        os << "overflow lists id " << id
           << (it == entries_.end() ? " which is not registered"
                                    : " whose pattern is keyed");
        trap("bucket-membership", os.str());
        return;
      }
    }
    for (const auto& [arity, by_key] : buckets_) {
      for (const auto& [key, ids] : by_key) {
        indexed += ids.size();
        for (std::uint64_t id : ids) {
          auto it = entries_.find(id);
          if (it == entries_.end() || !it->second.pattern.keyed() ||
              it->second.pattern.arity() != arity ||
              !(it->second.pattern.key() == key)) {
            std::ostringstream os;
            os << "bucket key=" << key.to_string() << " arity " << arity
               << " lists id " << id << " which does not belong there";
            trap("bucket-membership", os.str());
            return;
          }
        }
      }
    }
    if (indexed != entries_.size()) {
      std::ostringstream os;
      os << "bucket/overflow lists hold " << indexed << " ids for "
         << entries_.size() << " registered waiters";
      trap("membership-count", os.str());
    }
  }

  /// Test hook: swaps the first two ids of the overflow (or, failing that,
  /// of the first keyed bucket), breaking FIFO monotonicity for the
  /// corruption-trap tests.
  void audit_corrupt_fifo_for_test() {
    if (overflow_.size() >= 2) {
      std::swap(overflow_[0], overflow_[1]);
      return;
    }
    for (auto& [arity, by_key] : buckets_) {
      (void)arity;
      for (auto& [key, ids] : by_key) {
        (void)key;
        if (ids.size() >= 2) {
          std::swap(ids[0], ids[1]);
          return;
        }
      }
    }
  }
#endif

 private:
  struct Entry {
    CompiledPattern pattern;
    W payload;
  };

  void unindex(std::uint64_t id, const CompiledPattern& p) {
    auto drop = [id](std::vector<std::uint64_t>& v) {
      auto it = std::lower_bound(v.begin(), v.end(), id);
      if (it != v.end() && *it == id) v.erase(it);
    };
    if (p.keyed()) {
      auto ait = buckets_.find(p.arity());
      if (ait == buckets_.end()) return;
      auto bit = ait->second.find(p.key());
      if (bit == ait->second.end()) return;
      drop(bit->second);
      if (bit->second.empty()) ait->second.erase(bit);
      if (ait->second.empty()) buckets_.erase(ait);
    } else {
      drop(overflow_);
    }
  }

  // id -> entry; std::map keeps oldest-first iteration for for_each.
  std::map<std::uint64_t, Entry> entries_;
  // arity -> first-field value -> ascending waiter ids (keyed patterns).
  std::unordered_map<std::size_t,
                     std::unordered_map<Value, std::vector<std::uint64_t>,
                                        ValueHash>>
      buckets_;
  std::vector<std::uint64_t> overflow_;  ///< ascending ids, unkeyed patterns
  MatchMetrics metrics_;
};

}  // namespace tiamat::tuples
