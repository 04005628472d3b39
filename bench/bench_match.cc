// Microbenchmarks for the unified matching engine (src/tuple): compiled
// patterns, hash-bucketed tuple storage, and the keyed waiter index. The
// headline claim this bench pins down: keyed lookups probe one bucket and
// therefore do NOT scale with space size, while unkeyed lookups fall back
// to an O(arity-shard) scan. `--json` exports the engine's probe/scan/
// rejection accounting per scenario so the ratio stays diffable PR-over-PR
// (see BENCH_match.json at the repo root and EXPERIMENTS.md). Each scenario
// binds its index to a registry once setup is done, exactly as an
// Instance's bound index counts, so the timed loop pays that accounting.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "bench/bench_main.h"
#include "obs/metrics.h"
#include "tuple/index.h"
#include "tuple/matcher.h"
#include "tuple/pattern.h"
#include "tuple/tuple.h"
#include "tuple/waiter_index.h"

namespace {

using namespace tiamat;  // NOLINT
using tuples::any_int;
using tuples::any_string;
using tuples::CompiledPattern;
using tuples::Pattern;
using tuples::Tuple;
using tuples::TupleId;
using tuples::TupleIndex;
using tuples::WaiterIndex;

constexpr std::int64_t kKeys = 64;

/// Fold one scenario's engine accounting, counted under `prefix` ("match"
/// or "waiters") in the registry its index was bound to, into the
/// exportable registry. Counters accumulate across calibration re-runs, so
/// the *ratios* (candidates per probe vs per scan) are the stable
/// quantities; the per-lookup gauge records the final run's average
/// directly.
void export_stats(const std::string& scenario, std::int64_t size,
                  obs::Registry& engine, const std::string& prefix) {
  auto count = [&](const char* what) {
    return engine.counter(prefix + "." + what).value();
  };
  const std::uint64_t probes = count("bucket_probes");
  const std::uint64_t scans = count("scan_fallbacks");
  const std::uint64_t candidates = count("candidates");
  const std::uint64_t rejected = count("rejected");
  obs::Labels l{{"scenario", scenario}, {"size", std::to_string(size)}};
  auto& r = bench::registry();
  r.counter("engine.bucket_probes", l).add(probes);
  r.counter("engine.scan_fallbacks", l).add(scans);
  r.counter("engine.candidates", l).add(candidates);
  r.counter("engine.rejected", l).add(rejected);
  const std::uint64_t lookups = probes + scans;
  if (lookups > 0) {
    r.gauge("engine.candidates_per_lookup", l)
        .set(static_cast<double>(candidates) / static_cast<double>(lookups));
  }
}

TupleIndex populated_index(std::int64_t n) {
  TupleIndex idx;
  for (std::int64_t i = 0; i < n; ++i) {
    idx.insert(static_cast<TupleId>(i + 1),
               Tuple{"k" + std::to_string(i % kKeys), i});
  }
  return idx;
}

// ---- Storage: keyed probe vs unkeyed scan ---------------------------------

void BM_KeyedFindFirst(benchmark::State& state) {
  const auto n = state.range(0);
  TupleIndex idx = populated_index(n);
  CompiledPattern p(Pattern{"k17", any_int()});
  obs::Registry engine;
  idx.bind_metrics(engine);
  for (auto _ : state) {
    auto id = idx.find_first(p);
    benchmark::DoNotOptimize(id);
  }
  state.SetItemsProcessed(state.iterations());
  export_stats("keyed_find_first", n, engine, "match");
}
BENCHMARK(BM_KeyedFindFirst)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_KeyedFindFirstWide(benchmark::State& state) {
  // perfbench local_pair's lookup: one bucket of kKeys tuples {k, i, i}
  // probed for the id in its last slot, so every slot is a candidate and
  // all but the last differ only past the key.
  TupleIndex idx;
  for (std::int64_t i = 0; i < kKeys; ++i) {
    idx.insert(static_cast<TupleId>(i + 1), Tuple{"k", i, i});
  }
  CompiledPattern p(Pattern{"k", kKeys - 1, any_int()});
  obs::Registry engine;
  idx.bind_metrics(engine);
  for (auto _ : state) {
    auto id = idx.find_first(p);
    benchmark::DoNotOptimize(id);
  }
  state.SetItemsProcessed(state.iterations());
  export_stats("keyed_find_first_wide", kKeys, engine, "match");
}
BENCHMARK(BM_KeyedFindFirstWide);

void BM_UnkeyedFindFirst(benchmark::State& state) {
  const auto n = state.range(0);
  TupleIndex idx = populated_index(n);
  // Leading wildcard defeats the bucket key: the engine must walk the
  // arity shard. The int field matches only one tuple near the end.
  CompiledPattern p(Pattern{any_string(), n - 1});
  obs::Registry engine;
  idx.bind_metrics(engine);
  for (auto _ : state) {
    auto id = idx.find_first(p);
    benchmark::DoNotOptimize(id);
  }
  state.SetItemsProcessed(state.iterations());
  export_stats("unkeyed_find_first", n, engine, "match");
}
BENCHMARK(BM_UnkeyedFindFirst)->Arg(100)->Arg(1000)->Arg(10000);

void BM_KeyedFindMatches(benchmark::State& state) {
  const auto n = state.range(0);
  TupleIndex idx = populated_index(n);
  CompiledPattern p(Pattern{"k17", any_int()});
  obs::Registry engine;
  idx.bind_metrics(engine);
  for (auto _ : state) {
    auto ids = idx.find_matches(p);
    benchmark::DoNotOptimize(ids);
  }
  state.SetItemsProcessed(state.iterations());
  export_stats("keyed_find_matches", n, engine, "match");
}
BENCHMARK(BM_KeyedFindMatches)->Arg(100)->Arg(1000)->Arg(10000);

void BM_KeyedCountMatches(benchmark::State& state) {
  const auto n = state.range(0);
  TupleIndex idx = populated_index(n);
  CompiledPattern p(Pattern{"k17", any_int()});
  obs::Registry engine;
  idx.bind_metrics(engine);
  for (auto _ : state) {
    auto c = idx.count_matches(p);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
  export_stats("keyed_count_matches", n, engine, "match");
}
BENCHMARK(BM_KeyedCountMatches)->Arg(100)->Arg(1000)->Arg(10000);

void BM_InsertErase(benchmark::State& state) {
  TupleIndex idx;
  TupleId next = 1;
  for (auto _ : state) {
    TupleId id = next++;
    idx.insert(id, Tuple{"k" + std::to_string(id % kKeys),
                         static_cast<std::int64_t>(id)});
    auto t = idx.erase(id);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InsertErase);

// ---- Pattern compilation ---------------------------------------------------

void BM_CompilePattern(benchmark::State& state) {
  Pattern p{"req", any_int(), tuples::any_double(),
            tuples::Field::prefix("http://"), tuples::any_bool()};
  for (auto _ : state) {
    CompiledPattern cp(p);
    benchmark::DoNotOptimize(cp);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompilePattern);

void BM_CompiledMatch(benchmark::State& state) {
  Tuple t{"req", 42, 2.5, "http://example.org/page", true};
  CompiledPattern p(Pattern{"req", any_int(), tuples::any_double(),
                            tuples::Field::prefix("http://"),
                            tuples::any_bool()});
  for (auto _ : state) {
    bool m = p.matches(t);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompiledMatch);

// ---- Waiter index: candidate narrowing ------------------------------------

void BM_WaiterOfferKeyed(benchmark::State& state) {
  // N keyed waiters spread over kKeys buckets; an offer probes one bucket
  // instead of testing all N patterns.
  const auto n = state.range(0);
  WaiterIndex<int> waiters;
  for (std::int64_t i = 0; i < n; ++i) {
    waiters.add(static_cast<std::uint64_t>(i + 1),
                CompiledPattern(Pattern{"k" + std::to_string(i % kKeys),
                                        any_int()}),
                0);
  }
  Tuple t{"k17", std::int64_t{7}};
  obs::Registry engine;
  waiters.bind_metrics(engine);
  for (auto _ : state) {
    auto c = waiters.candidates(t);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
  export_stats("waiters_keyed_offer", n, engine, "waiters");
}
BENCHMARK(BM_WaiterOfferKeyed)->Arg(100)->Arg(1000)->Arg(10000);

void BM_WaiterOfferUnkeyed(benchmark::State& state) {
  // Leading-wildcard waiters all land in the overflow bucket: every offer
  // must consider each of them (the shape the keyed index exists to avoid).
  const auto n = state.range(0);
  WaiterIndex<int> waiters;
  for (std::int64_t i = 0; i < n; ++i) {
    waiters.add(static_cast<std::uint64_t>(i + 1),
                CompiledPattern(Pattern{any_string(), i}), 0);
  }
  Tuple t{"k17", std::int64_t{7}};
  obs::Registry engine;
  waiters.bind_metrics(engine);
  for (auto _ : state) {
    auto c = waiters.candidates(t);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
  export_stats("waiters_unkeyed_offer", n, engine, "waiters");
}
BENCHMARK(BM_WaiterOfferUnkeyed)->Arg(100)->Arg(1000);

}  // namespace

TIAMAT_BENCH_MAIN("match");
