// E2 — executable reproduction of Figure 2 ("A Tiamat Instance"): the
// lease manager is the first point of contact for every operation; a
// refused lease aborts the operation before the local tuple space or the
// communications manager do any work; a granted lease flows through the
// space and, for propagated operations, the communications manager.

#include <cstdio>
#include <cstdlib>

#include "core/instance.h"
#include "sim/network.h"
#include "transport/sim_transport.h"

using namespace tiamat;  // NOLINT

namespace {
int failures = 0;
void check(bool cond, const char* what) {
  std::printf("  %-62s %s\n", what, cond ? "ok" : "FAILED");
  if (!cond) ++failures;
}
}  // namespace

int main() {
  sim::EventQueue queue;
  sim::Rng rng(9);
  sim::Network net(queue, rng);
  transport::SimTransport tx(net);

  std::printf("Figure 2: lease manager -> local tuple space -> comms manager\n\n");

  // --- Path 1: lease refused => no further work -------------------------
  {
    core::Config cfg;
    cfg.name = "starved";
    core::Instance starved(tx, cfg,
                           std::make_unique<lease::DenyAllPolicy>());
    core::Instance peer(tx, core::Config{});
    peer.out(tuples::Tuple{"bait"});
    queue.run_for(sim::milliseconds(10));

    const auto space_reads_before = starved.local_space().stats().reads;
    const auto msgs_before = starved.endpoint().stats().sent;
    bool cb_fired = false;
    bool granted = starved.rd(tuples::Pattern{"bait"},
                              [&](auto) { cb_fired = true; });
    queue.run_for(sim::seconds(1));

    std::printf("(1) operation arrives, lease manager refuses:\n");
    check(!granted, "rd reports the lease refusal synchronously");
    check(!cb_fired, "no callback is ever invoked");
    check(starved.local_space().stats().reads == space_reads_before,
          "the local tuple space was never consulted");
    check(starved.endpoint().stats().sent == msgs_before,
          "the communications manager sent nothing");
    check(starved.metrics().counter("lease.refused_by_policy").value() >= 1,
          "the refusal is accounted by the lease manager");
  }

  // --- Path 2: lease granted => space, then comms manager ---------------
  {
    core::Config cfg;
    cfg.name = "healthy";
    core::Instance healthy(tx, cfg);
    core::Instance remote(tx, core::Config{});
    remote.out(tuples::Tuple{"elsewhere"});
    queue.run_for(sim::milliseconds(10));

    bool got = false;
    bool granted =
        healthy.rdp(tuples::Pattern{"elsewhere"},
                    [&](std::optional<core::ReadResult> r) {
                      got = r.has_value();
                    });
    queue.run_for(sim::seconds(2));

    std::printf("(2) operation arrives, lease manager grants:\n");
    check(granted, "the lease negotiation succeeds");
    check(healthy.local_space().stats().reads >= 1,
          "the local tuple space is tried first");
    check(healthy.endpoint().stats().sent >= 1,
          "the comms manager propagated the miss to visible instances");
    check(got, "the operation was satisfied remotely");
    check(healthy.metrics().counter("lease.granted").value() >= 1,
          "the grant is accounted");
  }

  // --- Path 3: the lease requester can refuse the offer ------------------
  {
    core::Config cfg;
    cfg.name = "negotiating";
    cfg.lease_caps.max_ttl = sim::seconds(1);  // instance offers at most 1 s
    core::Instance inst(tx, cfg);

    // The application insists on >= 90% of a 100 s lease: negotiation fails.
    lease::StrictRequester demanding(lease::for_duration(sim::seconds(100)),
                                     0.9);
    bool granted = inst.rd(tuples::Pattern{"x"}, [](auto) {}, demanding);
    std::printf("(3) the lease requester refuses the instance's offer:\n");
    check(!granted, "operation fails when the requester rejects the offer");
    check(inst.metrics().counter("lease.refused_by_requester").value() == 1,
          "accounted as refused-by-requester");
  }

  // --- Resource factories (§3.1.1) ---------------------------------------
  {
    core::Config cfg;
    core::Instance inst(tx, cfg);
    auto& threads = inst.leases().pool("threads", 2);
    auto t1 = threads.try_acquire();
    auto t2 = threads.try_acquire();
    auto t3 = threads.try_acquire();
    std::printf("(4) managed resources come from lease-manager factories:\n");
    check(static_cast<bool>(t1) && static_cast<bool>(t2),
          "tokens granted while the pool has capacity");
    check(!t3, "an exhausted pool refuses further allocation");
  }

  if (failures != 0) {
    std::printf("\nFIGURE 2 REPRODUCTION FAILED (%d checks)\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("\nFigure 2 behaviour reproduced: all checks passed.\n");
  return EXIT_SUCCESS;
}
