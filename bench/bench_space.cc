// E12 — §3.1.2: microbenchmarks of the tuple-space engine itself (the one
// piece the paper calls "a basic, custom built tuple space system"). Real
// wall-clock measurements: out/rdp/inp throughput vs space size, keyed vs
// unkeyed pattern matching, waiter wake-up, codec throughput, for bare
// tuples and for whole wire messages, the simulated network carrying those
// messages, and the lease layer (§2.5): a grant's cost beside a large
// resident set and the heap a stored tuple's lease adds.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_main.h"
#include "core/instance.h"
#include "lease/manager.h"
#include "net/message.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/random.h"
#include "space/local_space.h"
#include "transport/sim_transport.h"
#include "tuple/codec.h"

namespace {

using namespace tiamat;  // NOLINT
using space::LocalTupleSpace;
using tuples::any_int;
using tuples::any_string;
using tuples::Pattern;
using tuples::Tuple;

void BM_Out(benchmark::State& state) {
  sim::EventQueue q;
  sim::Rng rng(1);
  LocalTupleSpace space(q, rng);
  std::int64_t i = 0;
  for (auto _ : state) {
    space.out(Tuple{"key", i++, "payload"});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Out);

void BM_RdpKeyed(benchmark::State& state) {
  sim::EventQueue q;
  sim::Rng rng(1);
  LocalTupleSpace space(q, rng);
  const auto n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) {
    space.out(Tuple{"k" + std::to_string(i % 64), i});
  }
  std::int64_t i = 0;
  for (auto _ : state) {
    auto t = space.rdp(Pattern{"k" + std::to_string(i++ % 64), any_int()});
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RdpKeyed)->Arg(100)->Arg(1000)->Arg(10000);

void BM_RdpUnkeyedScan(benchmark::State& state) {
  sim::EventQueue q;
  sim::Rng rng(1);
  LocalTupleSpace space(q, rng);
  const auto n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) {
    space.out(Tuple{"k" + std::to_string(i), i});
  }
  for (auto _ : state) {
    // Unkeyed: must scan all buckets of the arity.
    auto t = space.rdp(Pattern{any_string(), 42});
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RdpUnkeyedScan)->Arg(100)->Arg(1000)->Arg(10000);

void BM_InpOutCycle(benchmark::State& state) {
  sim::EventQueue q;
  sim::Rng rng(1);
  LocalTupleSpace space(q, rng);
  space.out(Tuple{"cycle", 0});
  for (auto _ : state) {
    auto t = space.inp(Pattern{"cycle", any_int()});
    space.out(std::move(*t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InpOutCycle);

void BM_WaiterWakeup(benchmark::State& state) {
  sim::EventQueue q;
  sim::Rng rng(1);
  LocalTupleSpace space(q, rng);
  for (auto _ : state) {
    bool got = false;
    space.in(Pattern{"w", any_int()}, sim::kNever,
             [&](auto t) { got = t.has_value(); });
    space.out(Tuple{"w", 1});
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WaiterWakeup);

void BM_ManyWaitersOneOut(benchmark::State& state) {
  const auto n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    sim::EventQueue q;
    sim::Rng rng(1);
    LocalTupleSpace space(q, rng);
    for (std::int64_t i = 0; i < n; ++i) {
      space.rd(Pattern{"evt", static_cast<std::int64_t>(i)}, sim::kNever,
               [](auto) {});
    }
    state.ResumeTiming();
    space.out(Tuple{"evt", static_cast<std::int64_t>(n / 2)});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ManyWaitersOneOut)->Arg(10)->Arg(100)->Arg(1000);

void BM_CodecEncode(benchmark::State& state) {
  Tuple t{"request", 123456789, 3.14159, true,
          std::string(static_cast<std::size_t>(state.range(0)), 'x')};
  for (auto _ : state) {
    auto bytes = tuples::encode_tuple(t);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(t.footprint()));
}
BENCHMARK(BM_CodecEncode)->Arg(16)->Arg(256)->Arg(4096);

void BM_CodecDecode(benchmark::State& state) {
  Tuple t{"request", 123456789, 3.14159, true,
          std::string(static_cast<std::size_t>(state.range(0)), 'x')};
  auto bytes = tuples::encode_tuple(t);
  for (auto _ : state) {
    auto back = tuples::try_decode_tuple(bytes);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_CodecDecode)->Arg(16)->Arg(256)->Arg(4096);

// The two commonest wire shapes of perfbench's web_request: shape 0 is a
// kOpRequest propagating a 3-field pattern, shape 1 a kRemoteOut carrying a
// 1 KiB page body.
net::Message web_message(std::int64_t shape) {
  net::Message m;
  m.op_id = 0x12345678;
  m.origin = 7;
  if (shape == 0) {
    m.type = net::kOpRequest;
    m.headers = {std::int64_t{1}, std::int64_t{10'000'000}};  // kind, deadline
    m.pattern = Pattern{"web:req", any_int(), any_string()};
  } else {
    m.type = net::kRemoteOut;
    m.headers = {std::int64_t{10'000'000}};  // ttl
    m.tuple = Tuple{"web:resp", 4242, std::string(1024, 'b')};
  }
  return m;
}

void BM_MessageEncode(benchmark::State& state) {
  const net::Message m = web_message(state.range(0));
  for (auto _ : state) {
    auto bytes = net::encode_message(m);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetLabel(state.range(0) == 0 ? "op_request" : "remote_out");
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(net::encoded_size(m)));
}
BENCHMARK(BM_MessageEncode)->Arg(0)->Arg(1);

void BM_MessageDecode(benchmark::State& state) {
  const auto bytes = net::encode_message(web_message(state.range(0)));
  for (auto _ : state) {
    auto back = net::decode_message(bytes);
    benchmark::DoNotOptimize(back);
  }
  state.SetLabel(state.range(0) == 0 ? "op_request" : "remote_out");
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_MessageDecode)->Arg(0)->Arg(1);

// A 6-node LAN (no radio range) with the default LinkModel, each node's
// handler counting the bytes it receives.
struct SimLan {
  sim::EventQueue queue;
  sim::Rng rng{1};
  sim::Network net{queue, rng};
  std::vector<sim::NodeId> ids;
  std::uint64_t received = 0;

  SimLan() {
    for (int i = 0; i < 6; ++i) {
      ids.push_back(net.add_node());
      net.bind(ids.back(), [this](sim::NodeId, const sim::Payload& p) {
        received += p.size();
      });
    }
  }
};

// One unicast plus its delivery; the payload is BM_MessageEncode's message of
// the same shape (49 B and 1,072 B), copied each iteration as an encode would
// hand a fresh buffer to the transport.
void BM_SimUnicast(benchmark::State& state) {
  SimLan lan;
  const sim::Payload payload = net::encode_message(web_message(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    lan.net.send(lan.ids[i % 6], lan.ids[(i + 1) % 6], payload);
    lan.queue.step();
    benchmark::DoNotOptimize(lan.received);
    ++i;
  }
  if (lan.received != i * payload.size()) state.SkipWithError("lost a packet");
  state.SetLabel(state.range(0) == 0 ? "op_request" : "remote_out");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimUnicast)->Arg(0)->Arg(1);

// One discovery probe multicast to a group of 5 members and its 5 deliveries.
void BM_SimMulticast(benchmark::State& state) {
  SimLan lan;
  constexpr sim::GroupId kGroup = 1;
  for (std::size_t n = 1; n < lan.ids.size(); ++n) {
    lan.net.join_group(lan.ids[n], kGroup);
  }
  net::Message probe;
  probe.type = net::kProbe;
  probe.op_id = 1;
  probe.origin = lan.ids[0];
  const sim::Payload payload = net::encode_message(probe);
  for (auto _ : state) {
    lan.net.multicast(lan.ids[0], kGroup, payload);
    lan.queue.run_until_idle();
    benchmark::DoNotOptimize(lan.received);
  }
  if (lan.received != state.iterations() * 5 * payload.size()) {
    state.SkipWithError("lost a packet");
  }
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_SimMulticast);

void BM_PatternMatch(benchmark::State& state) {
  Tuple t{"tag", 42, 2.5, "http://example.org/page", true};
  Pattern p{"tag", any_int(), tuples::any_double(),
            tuples::Field::prefix("http://"), tuples::any_bool()};
  for (auto _ : state) {
    bool m = p.matches(t);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PatternMatch);

// ---- The lease layer --------------------------------------------------------

// A LeaseManager on a sim queue that already holds `resident` leases with a
// TTL longer than any run, each owned like a stored tuple (local_pair's
// resident set is 40,960 of them).
struct LeaseBed {
  sim::EventQueue queue;
  lease::LeaseManager leases{queue, std::make_unique<lease::AcceptAllPolicy>()};

  explicit LeaseBed(std::int64_t resident) {
    leases.set_end_hook([](lease::Owner, lease::LeaseState) {});
    const lease::LeaseTerms forever =
        lease::for_duration(sim::seconds(1'000'000'000));
    for (std::int64_t i = 0; i < resident; ++i) {
      leases.set_owner(leases.grant(forever),
                       {lease::OwnerKind::kStoredTuple,
                        static_cast<std::uint64_t>(i)});
    }
  }
};

// An op's lease from grant to release: the expiry timer is pushed and
// cancelled.
void BM_LeaseGrantRelease(benchmark::State& state) {
  LeaseBed bed(state.range(0));
  const lease::LeaseTerms terms = lease::for_duration(sim::seconds(1));
  for (auto _ : state) {
    const lease::LeaseHandle h = bed.leases.grant(terms);
    bed.leases.set_owner(h, {lease::OwnerKind::kOp, 1});
    bed.leases.release(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LeaseGrantRelease)->Arg(0)->Arg(40960);

// A lease from grant to expiry: its timer is the earliest, so one step of
// the queue expires it.
void BM_LeaseGrantExpire(benchmark::State& state) {
  LeaseBed bed(state.range(0));
  const lease::LeaseTerms terms = lease::for_duration(1);
  for (auto _ : state) {
    bed.leases.set_owner(bed.leases.grant(terms), {lease::OwnerKind::kOp, 1});
    bed.queue.step();
  }
  if (bed.leases.active() != static_cast<std::size_t>(state.range(0))) {
    state.SkipWithError("a lease outlived its expiry");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LeaseGrantExpire)->Arg(0)->Arg(40960);

// Heap bytes per stored tuple for 40,960 tuples of local_pair's resident
// shape, stored through an Instance (one lease each) and in a bare
// LocalTupleSpace, from glibc's mallinfo2: chunks in use, where a request of
// 128 KiB or more is mapped on its own and not counted (the threshold is
// pinned, so the figure does not depend on what ran before). Registered
// last, since the pinned threshold outlives it.
void BM_StoredTupleFootprint(benchmark::State& state) {
  constexpr int kTuples = 40960;
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  auto heap_in_use = [] { return static_cast<double>(mallinfo2().uordblks); };
  auto tuple = [](int i) {
    return Tuple{"tag-" + std::to_string(i % 640), std::int64_t{i / 640},
                 std::int64_t{i}};
  };
  double instance_bytes = 0;
  double space_bytes = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    sim::Rng rng(1);
    sim::Network net(q, rng);
    transport::SimTransport tx(net);
    core::Config cfg;
    cfg.lease_caps.max_ttl = sim::seconds(1'000'000'000);
    cfg.lease_caps.max_stored_bytes = std::size_t{1} << 40;
    cfg.lease_caps.max_active_ops = std::size_t{1} << 40;
    const lease::FlexibleRequester resident{
        lease::for_duration(sim::seconds(1'000'000'000))};
    {
      core::Instance inst(tx, cfg);
      const double before = heap_in_use();
      for (int i = 0; i < kTuples; ++i) inst.out(tuple(i), resident);
      instance_bytes = (heap_in_use() - before) / kTuples;
    }
    {
      LocalTupleSpace space(q, rng);
      const double before = heap_in_use();
      for (int i = 0; i < kTuples; ++i) space.out(tuple(i));
      space_bytes = (heap_in_use() - before) / kTuples;
    }
  }
  state.counters["instance_B_per_tuple"] = instance_bytes;
  state.counters["space_B_per_tuple"] = space_bytes;
}
BENCHMARK(BM_StoredTupleFootprint)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

TIAMAT_BENCH_MAIN("space");
