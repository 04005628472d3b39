// Differential tests for the unified matching engine (src/tuple): the
// bucketed TupleIndex and the keyed WaiterIndex are checked against naive
// linear-scan oracles over randomized workloads covering every Field::Kind
// and arities 0–6, plus regression tests pinning the behavioural contract
// the spaces rely on: ascending-id match order, FIFO waiter priority,
// seed-determined nondeterministic selection, and the slot-signature
// digest's equal-values-equal-bits rule.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/quantile.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "space/local_space.h"
#include "tuple/index.h"
#include "tuple/matcher.h"
#include "tuple/pattern.h"
#include "tuple/tuple.h"
#include "tuple/waiter_index.h"

namespace {

using namespace tiamat;  // NOLINT
using tuples::Blob;
using tuples::CompiledPattern;
using tuples::Field;
using tuples::Pattern;
using tuples::Tuple;
using tuples::TupleId;
using tuples::TupleIndex;
using tuples::Type;
using tuples::Value;
using tuples::WaiterIndex;

// Two distinct strings of one length that share their first and last 8
// bytes. The slot digest reads only those, so the twins set the same bit at
// every position: a keyed probe for one passes the other's slot through
// the signature filter, and only matches_rest tells them apart.
const std::string kTwinA = "twin-key-A-tail-end";
const std::string kTwinB = "twin-key-B-tail-end";

// Values are drawn from a small pool so random patterns actually collide
// with stored tuples instead of matching nothing.
Value random_value(sim::Rng& rng) {
  switch (rng.index(6)) {
    case 0:
      return Value(rng.uniform(0, 5));
    case 1:
      return Value(0.5 + static_cast<double>(rng.uniform(0, 3)));
    case 2:
      return Value(rng.chance(0.5));
    case 3:
      return Value("k" + std::to_string(rng.uniform(0, 5)));
    case 4:
      return Value(rng.chance(0.5) ? kTwinA : kTwinB);
    default:
      return Value(Blob(static_cast<std::size_t>(rng.uniform(0, 2)),
                        std::uint8_t{0xab}));
  }
}

bool is_twin(const Value& v) {
  return v.is_string() &&
         (v.as_string() == kTwinA || v.as_string() == kTwinB);
}

/// True when `p` is keyed and some tuple of its bucket in `store` holds the
/// other twin where `p` has a twin actual past the key: a slot the
/// signature filter must pass and matches_rest must reject.
bool probes_twin_collision(const std::map<TupleId, Tuple>& store,
                           const Pattern& p) {
  const CompiledPattern cp(p);
  if (!cp.keyed()) return false;
  for (const auto& [id, t] : store) {
    if (t.arity() != cp.arity() || !(t[0] == cp.key())) continue;
    for (std::size_t i = 1; i < t.arity(); ++i) {
      const Field& f = p.at(i);
      if (f.kind() == Field::Kind::kActual && is_twin(f.actual()) &&
          is_twin(t[i]) && !(f.actual() == t[i])) {
        return true;
      }
    }
  }
  return false;
}

Tuple random_tuple(sim::Rng& rng) {
  std::vector<Value> fields;
  const std::size_t arity = rng.index(7);  // 0–6
  fields.reserve(arity);
  for (std::size_t i = 0; i < arity; ++i) fields.push_back(random_value(rng));
  return Tuple(std::move(fields));
}

// One random field, exercising every Field::Kind. When `hint` is set, the
// actual/prefix variants sometimes copy it so the pattern can really match.
Field random_field(sim::Rng& rng, const Value* hint) {
  switch (rng.index(5)) {
    case 0:  // actual
      if (hint != nullptr && rng.chance(0.6)) return Field(*hint);
      return Field(random_value(rng));
    case 1: {  // formal
      static const Type kTypes[] = {Type::kInt, Type::kDouble, Type::kBool,
                                    Type::kString, Type::kBlob};
      if (hint != nullptr && rng.chance(0.6)) {
        return Field::formal(hint->type());
      }
      return Field::formal(kTypes[rng.index(5)]);
    }
    case 2:
      return Field::wildcard();
    case 3: {  // range
      const double lo = static_cast<double>(rng.uniform(-2, 3));
      return Field::range(lo, lo + static_cast<double>(rng.uniform(0, 3)));
    }
    default: {  // prefix
      if (hint != nullptr && hint->is_string() && rng.chance(0.6)) {
        const std::string& s = hint->as_string();
        return Field::prefix(s.substr(0, rng.index(s.size() + 1)));
      }
      return Field::prefix("k");
    }
  }
}

// A pattern of the given arity, optionally aimed at `target` so a healthy
// fraction of random patterns match at least one stored tuple.
Pattern random_pattern(sim::Rng& rng, std::size_t arity,
                       const Tuple* target) {
  std::vector<Field> fields;
  fields.reserve(arity);
  for (std::size_t i = 0; i < arity; ++i) {
    const Value* hint =
        (target != nullptr && i < target->arity()) ? &(*target)[i] : nullptr;
    fields.push_back(random_field(rng, hint));
  }
  return Pattern(std::move(fields));
}

std::vector<TupleId> oracle_matches(const std::map<TupleId, Tuple>& store,
                                    const Pattern& p) {
  std::vector<TupleId> out;
  for (const auto& [id, t] : store) {
    if (p.matches(t)) out.push_back(id);
  }
  return out;
}

// ---- TupleIndex vs the oracle ---------------------------------------------

TEST(MatchEngine, DifferentialAgainstLinearScan) {
  sim::Rng rng(20260806);
  TupleIndex idx;
  obs::Registry reg;
  idx.bind_metrics(reg);
  std::map<TupleId, Tuple> shadow;  // ascending-id linear-scan oracle
  std::vector<TupleId> erased_ids;
  TupleId next_id = 1;
  int reinserts = 0;
  int twin_probes = 0;

  for (int step = 0; step < 3000; ++step) {
    // Mutate: mostly inserts, some erases, so sizes drift up and down.
    const auto roll = rng.index(10);
    if (roll < 6 || shadow.empty()) {
      TupleId id = next_id++;
      Tuple t = random_tuple(rng);
      idx.insert(id, t);
      shadow.emplace(id, std::move(t));
    } else if (roll < 8) {
      auto it = shadow.begin();
      std::advance(it, static_cast<long>(rng.index(shadow.size())));
      auto erased = idx.erase(it->first);
      ASSERT_TRUE(erased.has_value());
      EXPECT_EQ(*erased, it->second);
      erased_ids.push_back(it->first);
      shadow.erase(it);
    } else if (roll == 8 && !erased_ids.empty()) {
      // Re-insert an erased id with a new tuple, as a released tentative
      // take puts its old id back: it lands behind newer ids, so the index
      // must place it out of arrival order.
      auto it = erased_ids.begin() +
                static_cast<long>(rng.index(erased_ids.size()));
      const TupleId id = *it;
      erased_ids.erase(it);
      Tuple t = random_tuple(rng);
      idx.insert(id, t);
      shadow.emplace(id, std::move(t));
      ++reinserts;
    }

    // Probe with a random pattern, sometimes aimed at a stored tuple.
    const Tuple* target = nullptr;
    if (!shadow.empty() && rng.chance(0.7)) {
      auto it = shadow.begin();
      std::advance(it, static_cast<long>(rng.index(shadow.size())));
      target = &it->second;
    }
    const std::size_t arity =
        target != nullptr && rng.chance(0.8) ? target->arity() : rng.index(7);
    Pattern p = random_pattern(rng, arity, target);
    const std::vector<TupleId> expect = oracle_matches(shadow, p);
    if (probes_twin_collision(shadow, p)) ++twin_probes;

    EXPECT_EQ(idx.find_matches(p), expect) << "pattern " << p.to_string();
    EXPECT_EQ(idx.count_matches(p), expect.size());
    auto first = idx.find_first(p);
    if (expect.empty()) {
      EXPECT_FALSE(first.has_value());
    } else {
      ASSERT_TRUE(first.has_value());
      EXPECT_EQ(*first, expect.front());
    }

    // The compiled pattern must agree with the interpreted one everywhere,
    // matched via the engine and via direct evaluation.
    CompiledPattern cp(p);
    EXPECT_EQ(idx.find_matches(cp), expect);
    if (target != nullptr) {
      EXPECT_EQ(cp.matches(*target), p.matches(*target));
    }
  }
  // The workload must have exercised both lookup paths and re-insertion.
  EXPECT_GT(reg.counter("match.bucket_probes").value(), 0u);
  EXPECT_GT(reg.counter("match.scan_fallbacks").value(), 0u);
  EXPECT_GT(reinserts, 0);
  EXPECT_GT(twin_probes, 0) << "no probe passed a colliding slot";
}

TEST(MatchEngine, FindMatchesHonoursLimit) {
  sim::Rng rng(7);
  TupleIndex idx;
  for (TupleId id = 1; id <= 50; ++id) {
    idx.insert(id, Tuple{"k", static_cast<std::int64_t>(id)});
  }
  Pattern p{"k", tuples::any_int()};
  auto ids = idx.find_matches(p, 3);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids, (std::vector<TupleId>{1, 2, 3}));
  EXPECT_EQ(idx.count_matches(p), 50u);
}

// ---- WaiterIndex vs the oracle --------------------------------------------

TEST(WaiterIndexTest, CandidatesCoverEveryMatchingWaiter) {
  sim::Rng rng(99);
  WaiterIndex<int> waiters;
  std::map<std::uint64_t, Pattern> shadow;
  std::uint64_t next_id = 1;

  for (int step = 0; step < 1500; ++step) {
    const auto roll = rng.index(10);
    if (roll < 6 || shadow.empty()) {
      Pattern p = random_pattern(rng, rng.index(7), nullptr);
      std::uint64_t id = next_id++;
      waiters.add(id, CompiledPattern(p), 0);
      shadow.emplace(id, std::move(p));
    } else if (roll < 8) {
      auto it = shadow.begin();
      std::advance(it, static_cast<long>(rng.index(shadow.size())));
      EXPECT_TRUE(waiters.extract(it->first).has_value());
      shadow.erase(it);
    }

    Tuple t = random_tuple(rng);
    const std::vector<std::uint64_t> cands = waiters.candidates(t);
    // Ascending id == FIFO registration order.
    EXPECT_TRUE(std::is_sorted(cands.begin(), cands.end()));
    // Soundness: every waiter whose pattern matches t is in the list.
    for (const auto& [id, p] : shadow) {
      if (p.matches(t)) {
        EXPECT_TRUE(std::find(cands.begin(), cands.end(), id) != cands.end())
            << "waiter " << id << " (" << p.to_string()
            << ") missing for tuple " << t.to_string();
      }
    }
    // No dangling ids.
    for (std::uint64_t id : cands) EXPECT_TRUE(waiters.contains(id));
  }
}

// ---- Accounting vs a shadow oracle -----------------------------------------

// The engine's accounting lives only in the registry it is bound to, and
// perfbench's per-op counts read it there. Every count is recomputed here
// from a shadow of the stored tuples and parked waiters, never from the
// engine itself.

/// Expected "<prefix>.*" counters: bucket_probes, scan_fallbacks,
/// candidates, rejected.
struct Accounting {
  std::array<std::uint64_t, 4> counters{};

  void lookup(bool keyed, std::uint64_t examined, std::uint64_t rejected) {
    ++counters[keyed ? 0 : 1];
    counters[2] += examined;
    counters[3] += rejected;
  }
};

std::array<std::uint64_t, 4> counted(obs::Registry& r,
                                     const std::string& prefix) {
  return {r.counter(prefix + ".bucket_probes").value(),
          r.counter(prefix + ".scan_fallbacks").value(),
          r.counter(prefix + ".candidates").value(),
          r.counter(prefix + ".rejected").value()};
}

/// A tuple lookup examines the stored tuples of the pattern's arity in id
/// order (only those in the key's bucket when the pattern is keyed) and
/// stops once `stop_after` matches were visited (0 = never). Nothing is
/// counted when no stored tuple has that arity: empty shards are pruned.
void expect_lookup(Accounting& a, const std::map<TupleId, Tuple>& store,
                   const CompiledPattern& p, std::size_t stop_after) {
  bool shard = false;
  std::uint64_t examined = 0;
  std::uint64_t rejected = 0;
  std::size_t matched = 0;
  for (const auto& [id, t] : store) {
    if (t.arity() != p.arity()) continue;
    shard = true;
    if (stop_after != 0 && matched == stop_after) continue;
    if (p.keyed() && !(t[0] == p.key())) continue;
    ++examined;
    if (p.matches(t)) {
      ++matched;
    } else {
      ++rejected;
    }
  }
  if (shard) a.lookup(p.keyed(), examined, rejected);
}

/// A waiter offer is one bucket probe. It examines the keyed bucket of the
/// tuple's (arity, first field) plus the whole overflow, and rejects the
/// overflow waiters of another arity.
void expect_offer(Accounting& a,
                  const std::map<std::uint64_t, CompiledPattern>& parked,
                  const Tuple& t) {
  std::uint64_t examined = 0;
  std::uint64_t rejected = 0;
  for (const auto& [id, p] : parked) {
    if (!p.keyed()) {
      ++examined;
      if (p.arity() != t.arity()) ++rejected;
    } else if (p.arity() == t.arity() && p.key() == t[0]) {
      ++examined;
    }
  }
  a.lookup(true, examined, rejected);
}

TEST(MatchEngine, AccountingMatchesShadowOracle) {
  sim::Rng rng(20261017);
  TupleIndex idx;
  WaiterIndex<int> waiters;
  std::map<TupleId, Tuple> store;
  std::map<std::uint64_t, CompiledPattern> parked;
  TupleId next_tuple = 1;
  std::uint64_t next_waiter = 1;
  int twin_probes = 0;

  // Work done before binding is counted nowhere: binding starts the
  // registry's counters at zero, with no catch-up.
  for (int i = 0; i < 50; ++i) {
    Tuple t = random_tuple(rng);
    idx.insert(next_tuple, t);
    store.emplace(next_tuple++, t);
    idx.count_matches(random_pattern(rng, t.arity(), &t));
    waiters.candidates(t);
  }
  obs::Registry reg;
  idx.bind_metrics(reg);
  waiters.bind_metrics(reg);
  Accounting match;
  Accounting offer;
  ASSERT_EQ(counted(reg, "match"), match.counters);
  ASSERT_EQ(counted(reg, "waiters"), offer.counters);

  int pruned = 0;
  for (int step = 0; step < 2500; ++step) {
    SCOPED_TRACE(step);
    std::optional<std::size_t> drained;
    const auto roll = rng.index(10);
    if (step % 250 == 125) {
      // Drain one arity: its shard is pruned, so the lookup below, aimed
      // at that arity, must count nothing.
      drained = rng.index(7);
      for (auto it = store.begin(); it != store.end();) {
        if (it->second.arity() != *drained) {
          ++it;
          continue;
        }
        ASSERT_TRUE(idx.erase(it->first).has_value());
        it = store.erase(it);
      }
    } else if (roll < 5 || store.empty()) {
      Tuple t = random_tuple(rng);
      idx.insert(next_tuple, t);
      store.emplace(next_tuple++, std::move(t));
    } else if (roll < 8) {
      auto it = store.begin();
      std::advance(it, static_cast<long>(rng.index(store.size())));
      ASSERT_TRUE(idx.erase(it->first).has_value());
      store.erase(it);
    }
    if (rng.chance(0.3)) {
      CompiledPattern p(random_pattern(rng, rng.index(7), nullptr));
      waiters.add(next_waiter, p, 0);
      parked.emplace(next_waiter++, std::move(p));
    } else if (!parked.empty() && rng.chance(0.2)) {
      auto it = parked.begin();
      std::advance(it, static_cast<long>(rng.index(parked.size())));
      ASSERT_TRUE(waiters.extract(it->first).has_value());
      parked.erase(it);
    }

    // A tuple lookup through one of the engine's four entry points, keyed
    // or unkeyed by whether the first field came out an actual.
    const Tuple* target = nullptr;
    if (!store.empty() && rng.chance(0.7)) {
      auto it = store.begin();
      std::advance(it, static_cast<long>(rng.index(store.size())));
      target = &it->second;
    }
    std::size_t arity =
        target != nullptr && rng.chance(0.8) ? target->arity() : rng.index(7);
    if (drained) {
      arity = *drained;
      target = nullptr;
    }
    const Pattern drawn = random_pattern(rng, arity, target);
    if (probes_twin_collision(store, drawn)) ++twin_probes;
    const CompiledPattern p(drawn);
    const bool shard = std::any_of(store.begin(), store.end(), [&](auto& e) {
      return e.second.arity() == p.arity();
    });
    if (!shard) ++pruned;
    switch (rng.index(4)) {
      case 0:
        idx.find_first(p);
        expect_lookup(match, store, p, 1);
        break;
      case 1: {
        const std::size_t limit = rng.index(3);  // 0 = no limit
        idx.find_matches(p, limit);
        expect_lookup(match, store, p, limit);
        break;
      }
      case 2:
        idx.count_matches(p);
        expect_lookup(match, store, p, 0);
        break;
      default: {
        int visits = 0;
        idx.for_each_match(p, [&](TupleId, const Tuple&) {
          return ++visits < 2;
        });
        expect_lookup(match, store, p, 2);
        break;
      }
    }

    // A waiter offer. Values come from a small pool, so offers hit keyed
    // buckets as well as the overflow.
    Tuple t = random_tuple(rng);
    waiters.candidates(t);
    expect_offer(offer, parked, t);

    ASSERT_EQ(counted(reg, "match"), match.counters);
    ASSERT_EQ(counted(reg, "waiters"), offer.counters);
  }

  for (const auto& [prefix, want] :
       {std::pair{std::string("match"), match},
        std::pair{std::string("waiters"), offer}}) {
    SCOPED_TRACE(prefix);
    EXPECT_GT(want.counters[0], 0u);  // bucket probes
    EXPECT_GT(want.counters[2], 0u);  // candidates
    EXPECT_GT(want.counters[3], 0u);  // rejections
    // One sample per counted lookup; the samples sum to `rejected`.
    const obs::QuantileSketch& per_lookup =
        reg.sketch(prefix + ".rejected_per_lookup");
    EXPECT_EQ(per_lookup.count(), want.counters[0] + want.counters[1]);
    EXPECT_EQ(per_lookup.sum(), static_cast<double>(want.counters[3]));
  }
  EXPECT_GT(match.counters[1], 0u);  // tuple lookups also scanned
  EXPECT_EQ(offer.counters[1], 0u);  // an offer never scans
  EXPECT_GT(pruned, 0) << "no lookup hit a pruned arity shard";
  EXPECT_GT(twin_probes, 0) << "no lookup passed a colliding slot";
}

// ---- Slot signatures --------------------------------------------------------

// Every position a tuple field can take in the tests above, and then some.
constexpr std::size_t kPositions = 9;

TEST(SlotSignature, EqualValuesSetEqualBits) {
  std::vector<std::pair<Value, Value>> equal = {
      {Value(std::int64_t{0}), Value(0)},
      {Value(std::int64_t{-7}), Value(-7)},
      {Value(std::numeric_limits<std::int64_t>::min()),
       Value(std::numeric_limits<std::int64_t>::min())},
      {Value(0.0), Value(-0.0)},
      {Value(-0.0), Value(-0.0)},
      {Value(2.5), Value(2.5)},
      {Value(true), Value(true)},
      {Value(false), Value(false)},
      {Value(""), Value(std::string())},
      {Value(Blob{}), Value(Blob{})},
  };
  // Separately built strings and blobs of every length around the 8-byte
  // head and tail the digest reads, up to a KiB page body.
  for (std::size_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 1024}) {
    std::string text;
    Blob bytes;
    for (std::size_t i = 0; i < n; ++i) {
      text.push_back(static_cast<char>('a' + i % 26));
      bytes.push_back(static_cast<std::uint8_t>(i * 37));
    }
    equal.emplace_back(Value(text), Value(std::string(text)));
    equal.emplace_back(Value(bytes), Value(Blob(bytes)));
  }
  for (const auto& [a, b] : equal) {
    ASSERT_EQ(a, b);
    for (std::size_t pos = 0; pos < kPositions; ++pos) {
      const std::uint64_t bit = tuples::field_bit(pos, a);
      EXPECT_EQ(std::popcount(bit), 1);
      EXPECT_EQ(bit, tuples::field_bit(pos, b))
          << a.to_string() << " at position " << pos;
    }
  }
  // The index agrees: a -0.0 stored past the key is found by +0.0.
  TupleIndex idx;
  idx.insert(1, Tuple{"k", -0.0});
  EXPECT_EQ(idx.find_first(Pattern{"k", 0.0}), std::optional<TupleId>(1));
}

TEST(SlotSignature, DigestReadsLengthAndEndsOnly) {
  // Distinct values of one length whose first and last 8 bytes agree set
  // the same bit, however long they are: the digest is O(1) per field.
  std::string page(1024, 'p');
  std::string edited = page;
  edited[512] = 'q';
  Blob body(1024, 0x11);
  Blob patched = body;
  patched[8] = 0x12;
  const std::pair<Value, Value> twins[] = {
      {Value(kTwinA), Value(kTwinB)},
      {Value(page), Value(edited)},
      {Value(body), Value(patched)},
  };
  for (const auto& [a, b] : twins) {
    ASSERT_NE(a, b);
    for (std::size_t pos = 0; pos < kPositions; ++pos) {
      EXPECT_EQ(tuples::field_bit(pos, a), tuples::field_bit(pos, b));
    }
  }
}

TEST(SlotSignature, EveryMatchCarriesThePatternsMask) {
  sim::Rng rng(20261018);
  for (int i = 0; i < 2000; ++i) {
    const Tuple t = random_tuple(rng);
    const Pattern p = random_pattern(rng, t.arity(), &t);
    const CompiledPattern cp(p);
    if (cp.matches(t)) {
      EXPECT_EQ(tuples::rest_signature(t) & cp.rest_mask(), cp.rest_mask())
          << p.to_string() << " vs " << t.to_string();
    }
    const CompiledPattern exact(Pattern::exactly(t));
    EXPECT_EQ(exact.rest_mask(), tuples::rest_signature(t));
  }
  // Only actuals past the key enter the mask.
  EXPECT_EQ(CompiledPattern(Pattern{"k", tuples::any_int(), tuples::any()})
                .rest_mask(),
            0u);
  EXPECT_EQ(CompiledPattern(Pattern{"k", 3}).rest_mask(),
            tuples::field_bit(1, Value(3)));
}

TEST(SlotSignature, DistinctIdsSpreadOverManyBits) {
  // The local_pair shape: ids in the field past the tag. A filter whose
  // bits barely vary would pass nearly every slot.
  std::set<std::uint64_t> bits;
  for (std::int64_t id = 0; id < 64; ++id) {
    bits.insert(tuples::field_bit(1, Value(id)));
  }
  EXPECT_GE(bits.size(), 32u);
}

// ---- Behavioural regressions the spaces depend on -------------------------

TEST(MatchRegression, OldestDestructiveWaiterWinsAcrossBuckets) {
  // A keyed waiter (bucketed) registered before an unkeyed one (overflow)
  // must win the race for a matching tuple — and vice versa. This pins the
  // merged keyed+overflow FIFO order of WaiterIndex::candidates.
  for (bool keyed_first : {true, false}) {
    sim::EventQueue q;
    sim::Rng rng(1);
    space::LocalTupleSpace space(q, rng);
    std::vector<int> fired;
    auto cb = [&fired](int who) {
      return [&fired, who](std::optional<Tuple> t) {
        if (t) fired.push_back(who);
      };
    };
    Pattern keyed{"evt", tuples::any_int()};
    Pattern unkeyed{tuples::any_string(), tuples::any_int()};
    if (keyed_first) {
      space.in(keyed, sim::kNever, cb(1));
      space.in(unkeyed, sim::kNever, cb(2));
    } else {
      space.in(unkeyed, sim::kNever, cb(2));
      space.in(keyed, sim::kNever, cb(1));
    }
    space.out(Tuple{"evt", 7});
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired.front(), keyed_first ? 1 : 2);
  }
}

TEST(MatchRegression, ReadersAllFireBeforeTheTake) {
  sim::EventQueue q;
  sim::Rng rng(1);
  space::LocalTupleSpace space(q, rng);
  int reads = 0;
  bool taken = false;
  space.rd(Pattern{"evt", tuples::any_int()}, sim::kNever,
           [&](auto t) { reads += t.has_value(); });
  space.in(Pattern{tuples::any_string(), 7}, sim::kNever,
           [&](auto t) { taken = t.has_value(); });
  space.rd(Pattern{tuples::any_string(), tuples::any_int()}, sim::kNever,
           [&](auto t) { reads += t.has_value(); });
  space.out(Tuple{"evt", 7});
  EXPECT_EQ(reads, 2);
  EXPECT_TRUE(taken);
  EXPECT_EQ(space.size(), 0u);
}

TEST(MatchRegression, SelectionIsDeterministicUnderFixedSeed) {
  // Nondeterministic selection (§2.4) draws from the seeded Rng over the
  // ascending-id candidate list; two identically seeded spaces must pick
  // identical sequences even though storage is hash-bucketed.
  auto run = [](std::uint64_t seed) {
    sim::EventQueue q;
    sim::Rng rng(seed);
    space::LocalTupleSpace space(q, rng);
    for (std::int64_t i = 0; i < 32; ++i) space.out(Tuple{"k", i});
    std::vector<std::int64_t> picks;
    for (int i = 0; i < 64; ++i) {
      auto t = space.rdp(Pattern{"k", tuples::any_int()});
      picks.push_back((*t)[1].as_int());
    }
    return picks;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));  // and the seed actually matters
}

}  // namespace
