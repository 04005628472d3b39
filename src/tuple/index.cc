#include "tuple/index.h"

#include <algorithm>

#if TIAMAT_AUDIT_ENABLED
#include <functional>
#include <sstream>
#include <string>
#endif

namespace tiamat::tuples {

namespace {

// Shard id lists hold plain ids, buckets hold slots pointing at by_id_
// entries; both stay sorted by id, and the helpers below serve either.
TupleId id_of(TupleId id) { return id; }
template <typename Slot>
TupleId id_of(const Slot& s) {
  return s.entry->first;
}

template <typename Slots>
auto find_slot(Slots& v, TupleId id) {
  return std::lower_bound(
      v.begin(), v.end(), id,
      [](const auto& s, TupleId key) { return id_of(s) < key; });
}

/// Inserts `s` keeping `v` sorted by id. Ids are allocated monotonically,
/// so the common case is a pure push_back; out-of-order inserts
/// (tentative releases putting an old id back) binary-search.
template <typename Slot>
void sorted_insert(std::vector<Slot>& v, Slot s) {
  if (v.empty() || id_of(v.back()) < id_of(s)) {
    v.push_back(s);
    return;
  }
  v.insert(find_slot(v, id_of(s)), s);
}

template <typename Slot>
void sorted_erase(std::vector<Slot>& v, TupleId id) {
  auto it = find_slot(v, id);
  if (it != v.end() && id_of(*it) == id) v.erase(it);
}

#if TIAMAT_AUDIT_ENABLED
template <typename Slot>
bool sorted_contains(const std::vector<Slot>& v, TupleId id) {
  auto it = find_slot(v, id);
  return it != v.end() && id_of(*it) == id;
}

template <typename Slot>
bool strictly_ascending(const std::vector<Slot>& v) {
  return std::adjacent_find(v.begin(), v.end(),
                            [](const Slot& a, const Slot& b) {
                              return id_of(a) >= id_of(b);
                            }) == v.end();
}
#endif

}  // namespace

void TupleIndex::insert(TupleId id, Tuple t) {
  footprint_ += t.footprint();
  const Entry& e = *by_id_.emplace(id, std::move(t)).first;
  const Tuple& stored = e.second;
  Shard& shard = shards_[stored.arity()];
  sorted_insert(shard.ids, id);
  if (stored.arity() > 0) {
    sorted_insert(shard.buckets[stored[0]], Slot{&e, rest_signature(stored)});
  }
}

std::optional<Tuple> TupleIndex::erase(TupleId id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return std::nullopt;
  const Tuple& stored = it->second;
  // Unlink before destroying the node: the bucket search reads ids through
  // the slots, this entry's own slot included.
  auto sit = shards_.find(stored.arity());
  if (sit != shards_.end()) {
    Shard& shard = sit->second;
    sorted_erase(shard.ids, id);
    if (stored.arity() > 0) {
      auto bit = shard.buckets.find(stored[0]);
      if (bit != shard.buckets.end()) {
        sorted_erase(bit->second, id);
        if (bit->second.empty()) shard.buckets.erase(bit);
      }
    }
    if (shard.ids.empty()) shards_.erase(sit);
  }
  footprint_ -= stored.footprint();
  Tuple t = std::move(it->second);
  by_id_.erase(it);
  return t;
}

const Tuple* TupleIndex::get(TupleId id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : &it->second;
}

std::vector<TupleId> TupleIndex::find_matches(const CompiledPattern& p,
                                              std::size_t limit) const {
  std::vector<TupleId> out;
  lookup(p, [&](TupleId id, const Tuple&) {
    out.push_back(id);
    return limit == 0 || out.size() < limit;
  });
  TIAMAT_AUDIT_CHECK(if (p.keyed() && audit::sample())
                         audit_differential(p, out, limit));
  return out;
}

std::vector<TupleId> TupleIndex::find_matches(const Pattern& p,
                                              std::size_t limit) const {
  return find_matches(CompiledPattern(p), limit);
}

std::optional<TupleId> TupleIndex::find_first(const CompiledPattern& p) const {
  std::optional<TupleId> found;
  lookup(p, [&](TupleId id, const Tuple&) {
    found = id;
    return false;  // short-circuit after the first match
  });
  return found;
}

std::optional<TupleId> TupleIndex::find_first(const Pattern& p) const {
  return find_first(CompiledPattern(p));
}

std::size_t TupleIndex::count_matches(const CompiledPattern& p) const {
  std::size_t n = 0;
  lookup(p, [&](TupleId, const Tuple&) {
    ++n;
    return true;
  });
  return n;
}

std::size_t TupleIndex::count_matches(const Pattern& p) const {
  return count_matches(CompiledPattern(p));
}

void TupleIndex::for_each(
    const std::function<void(TupleId, const Tuple&)>& fn) const {
  for (const auto& [id, t] : by_id_) fn(id, t);
}

#if TIAMAT_AUDIT_ENABLED

namespace {

std::string describe(TupleId id, const Tuple& t) {
  std::ostringstream os;
  os << "tuple id " << id << " arity " << t.arity() << " " << t.to_string();
  return os.str();
}

}  // namespace

void TupleIndex::audit_check(const char* checkpoint) const {
  auto trap = [&](const std::string& invariant, const std::string& detail) {
    std::ostringstream os;
    os << detail << " | index size " << by_id_.size() << ", shards "
       << shards_.size() << ", footprint " << footprint_;
    audit::fail("TupleIndex", checkpoint, invariant, os.str());
  };

  // Bucket slots are compared against the addresses of live by_id_ entries
  // before anything reads through them.
  std::vector<const Entry*> live;
  live.reserve(by_id_.size());
  for (const Entry& e : by_id_) live.push_back(&e);
  std::sort(live.begin(), live.end(), std::less<const Entry*>());

  // Slots and ordering first: the membership checks below binary-search
  // the id vectors, so a bad slot or an unsorted list must trap as itself
  // rather than as a bogus membership miss.
  for (const auto& [arity, shard] : shards_) {
    if (shard.ids.empty()) {
      std::ostringstream os;
      os << "empty shard for arity " << arity << " not pruned";
      trap("shard-pruning", os.str());
      return;
    }
    if (!strictly_ascending(shard.ids)) {
      std::ostringstream os;
      os << "arity " << arity << " shard id list not strictly ascending";
      trap("id-order", os.str());
      return;
    }
    for (const auto& [key, slots] : shard.buckets) {
      if (slots.empty()) {
        trap("bucket-pruning",
             "empty bucket key=" + key.to_string() + " not pruned");
        return;
      }
      for (const Slot& s : slots) {
        if (!std::binary_search(live.begin(), live.end(), s.entry,
                                std::less<const Entry*>())) {
          trap("bucket-slot", "bucket key=" + key.to_string() +
                                  " holds a slot that points at no stored "
                                  "entry");
          return;
        }
        const Tuple& t = s.entry->second;
        if (t.arity() == 0 || t.arity() != arity || !(t[0] == key)) {
          std::ostringstream os;
          os << "arity " << arity << " bucket key=" << key.to_string()
             << " points at " << describe(s.entry->first, t)
             << " whose arity or first field differs";
          trap("bucket-slot", os.str());
          return;
        }
        // A missing bit would make keyed probes skip a matching tuple.
        if (s.signature != rest_signature(t)) {
          std::ostringstream os;
          os << "bucket key=" << key.to_string() << " slot of "
             << describe(s.entry->first, t) << " has signature " << std::hex
             << s.signature << ", its fields give " << rest_signature(t);
          trap("slot-signature", os.str());
          return;
        }
      }
      if (!strictly_ascending(slots)) {
        trap("id-order", "bucket key=" + key.to_string() +
                             " id list not strictly ascending");
        return;
      }
    }
  }

  // Forward direction: every stored tuple is reachable through its shard.
  std::size_t footprint_sum = 0;
  for (const auto& [id, t] : by_id_) {
    footprint_sum += t.footprint();
    auto sit = shards_.find(t.arity());
    if (sit == shards_.end()) {
      trap("shard-membership", describe(id, t) + " has no arity shard");
      return;
    }
    const Shard& shard = sit->second;
    if (!sorted_contains(shard.ids, id)) {
      trap("shard-membership",
           describe(id, t) + " missing from its shard id list");
      return;
    }
    if (t.arity() > 0) {
      auto bit = shard.buckets.find(t[0]);
      if (bit == shard.buckets.end() || !sorted_contains(bit->second, id)) {
        trap("bucket-membership",
             describe(id, t) + " missing from bucket key=" +
                 t[0].to_string());
        return;
      }
      if (ValueHash{}(bit->first) != ValueHash{}(t[0])) {
        trap("bucket-key-hash",
             describe(id, t) + " bucket key " + bit->first.to_string() +
                 " hashes differently from first field " + t[0].to_string());
        return;
      }
    }
  }
  if (footprint_sum != footprint_) {
    std::ostringstream os;
    os << "cached footprint " << footprint_ << " != recomputed "
       << footprint_sum;
    trap("footprint", os.str());
    return;
  }

  // Reverse direction: every shard id is a live tuple in the right place
  // (bucket slots were checked above) and the membership counts balance —
  // together with the forward pass this proves "exactly one bucket" (no
  // duplicates, no strays).
  std::size_t shard_ids_total = 0;
  std::size_t bucket_ids_total = 0;
  std::size_t keyed_tuples = 0;
  for (const auto& [id, t] : by_id_) {
    if (t.arity() > 0) ++keyed_tuples;
  }
  for (const auto& [arity, shard] : shards_) {
    shard_ids_total += shard.ids.size();
    for (TupleId id : shard.ids) {
      const Tuple* t = get(id);
      if (t == nullptr || t->arity() != arity) {
        std::ostringstream os;
        os << "shard arity " << arity << " lists id " << id
           << (t == nullptr ? " which is not stored"
                            : " whose tuple has a different arity");
        trap("shard-membership", os.str());
        return;
      }
    }
    for (const auto& [key, slots] : shard.buckets) {
      bucket_ids_total += slots.size();
    }
  }
  if (shard_ids_total != by_id_.size()) {
    std::ostringstream os;
    os << "shard id lists hold " << shard_ids_total << " ids for "
       << by_id_.size() << " stored tuples";
    trap("membership-count", os.str());
    return;
  }
  if (bucket_ids_total != keyed_tuples) {
    std::ostringstream os;
    os << "buckets hold " << bucket_ids_total << " ids for " << keyed_tuples
       << " keyed tuples";
    trap("membership-count", os.str());
  }
}

void TupleIndex::audit_corrupt_bucket_for_test(TupleId id, TupleId retarget) {
  const Tuple* t = get(id);
  if (t == nullptr || t->arity() == 0) return;
  auto sit = shards_.find(t->arity());
  if (sit == shards_.end()) return;
  auto bit = sit->second.buckets.find((*t)[0]);
  if (bit == sit->second.buckets.end()) return;
  auto target = by_id_.find(retarget);
  if (target == by_id_.end()) {
    sorted_erase(bit->second, id);
    return;
  }
  auto slot = find_slot(bit->second, id);
  if (slot != bit->second.end() && id_of(*slot) == id) slot->entry = &*target;
}

void TupleIndex::audit_corrupt_signature_for_test(TupleId id) {
  const Tuple* t = get(id);
  if (t == nullptr || t->arity() == 0) return;
  auto& slots = shards_.at(t->arity()).buckets.at((*t)[0]);
  auto slot = find_slot(slots, id);
  if (slot != slots.end() && id_of(*slot) == id) slot->signature = 0;
}

void TupleIndex::audit_differential(const CompiledPattern& p,
                                    const std::vector<TupleId>& got,
                                    std::size_t limit) const {
  // Linear-scan oracle: what a bucketless index would have returned.
  std::vector<TupleId> expect;
  for (const auto& [id, t] : by_id_) {
    if (!p.matches(t)) continue;
    expect.push_back(id);
    if (limit != 0 && expect.size() == limit) break;
  }
  if (expect == got) return;
  std::ostringstream os;
  os << "keyed probe returned " << got.size() << " ids, linear oracle "
     << expect.size() << " for pattern key=" << p.key().to_string()
     << " arity " << p.arity();
  audit::fail("TupleIndex", "find_matches", "probe-vs-oracle", os.str());
}

#endif  // TIAMAT_AUDIT_ENABLED

}  // namespace tiamat::tuples
