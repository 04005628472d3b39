// Unit tests for the leasing subsystem: terms, budgets, negotiation,
// expiry/revocation, policies, and resource pools.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lease/factory.h"
#include "lease/lease.h"
#include "lease/manager.h"
#include "lease/policy.h"
#include "lease/requester.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"

namespace tiamat::lease {
namespace {

using sim::EventQueue;
using sim::milliseconds;
using sim::seconds;

// ---------------- LeaseTerms ----------------

TEST(LeaseTerms, BoundedDetection) {
  EXPECT_FALSE(unbounded().is_bounded());
  EXPECT_TRUE(for_duration(seconds(1)).is_bounded());
  EXPECT_TRUE(for_contacts(3).is_bounded());
  EXPECT_TRUE(for_bytes(100).is_bounded());
}

TEST(LeaseTerms, ToStringMentionsDimensions) {
  auto s = for_duration(seconds(1)).to_string();
  EXPECT_NE(s.find("ttl"), std::string::npos);
  EXPECT_EQ(unbounded().to_string(), "{unbounded}");
}

// ---------------- Lease budgets ----------------

TEST(Lease, ContactBudgetEnforced) {
  Lease l(1, for_contacts(2), 0);
  EXPECT_TRUE(l.contacts_remaining());
  EXPECT_TRUE(l.charge_contact());
  EXPECT_TRUE(l.charge_contact());
  EXPECT_FALSE(l.contacts_remaining());
  EXPECT_FALSE(l.charge_contact());
  EXPECT_EQ(l.contacts_used(), 2u);
}

TEST(Lease, ByteBudgetEnforced) {
  Lease l(1, for_bytes(100), 0);
  EXPECT_TRUE(l.charge_bytes(60));
  EXPECT_FALSE(l.charge_bytes(50));  // would exceed; not charged
  EXPECT_EQ(l.bytes_used(), 60u);
  EXPECT_TRUE(l.charge_bytes(40));
  EXPECT_FALSE(l.charge_bytes(1));
}

TEST(Lease, UnboundedChargesAlwaysSucceed) {
  Lease l(1, unbounded(), 0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(l.charge_contact());
    EXPECT_TRUE(l.charge_bytes(1 << 20));
  }
}

TEST(Lease, ExpiryTimeFromTtl) {
  Lease l(1, for_duration(seconds(5)), 100);
  EXPECT_EQ(l.expiry_time(), 100 + seconds(5));
  Lease l2(2, unbounded(), 100);
  EXPECT_EQ(l2.expiry_time(), sim::kNever);
}

TEST(Lease, EndCallbacksFireOnceWithState) {
  EventQueue q;
  LeaseManager m(q, default_policy());
  int calls = 0;
  Owner seen_owner;
  LeaseState seen{};
  m.set_end_hook([&](Owner o, LeaseState s) {
    ++calls;
    seen_owner = o;
    seen = s;
  });
  const LeaseHandle l = m.negotiate(FlexibleRequester{for_duration(seconds(1))});
  m.set_owner(l, {OwnerKind::kOp, 42});
  q.run_until_idle();
  EXPECT_FALSE(m.revoke(l));  // already finished
  m.release(l);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, LeaseState::kExpired);
  EXPECT_EQ(seen_owner.kind, OwnerKind::kOp);
  EXPECT_EQ(seen_owner.id, 42u);
}

TEST(Manager, SetOwnerAfterRevocationFiresAtOnce) {
  EventQueue q;
  LeaseManager m(q, default_policy());
  std::vector<LeaseState> seen;
  m.set_end_hook([&](Owner, LeaseState s) { seen.push_back(s); });
  const LeaseHandle l = m.negotiate(FlexibleRequester{});
  m.revoke_all();  // say, from a callback the grant's caller set off
  EXPECT_TRUE(seen.empty()) << "no owner yet";
  m.set_owner(l, {OwnerKind::kStoredTuple, 7});
  EXPECT_EQ(seen, std::vector<LeaseState>{LeaseState::kRevoked});
}

TEST(Lease, InactiveLeaseRefusesCharges) {
  Lease l(1, unbounded(), 0);
  l.finish(LeaseState::kExpired);
  l.finish(LeaseState::kRevoked);  // already ended
  EXPECT_EQ(l.state(), LeaseState::kExpired);
  EXPECT_FALSE(l.charge_contact());
  EXPECT_FALSE(l.charge_bytes(1));
  EXPECT_FALSE(l.contacts_remaining());
}

// ---------------- Policies ----------------

TEST(DefaultPolicy, ClampsToMaxAndDefaults) {
  DefaultLeasePolicy::Caps caps;
  caps.max_ttl = seconds(10);
  caps.default_ttl = seconds(2);
  caps.max_contacts = 4;
  caps.default_contacts = 2;
  DefaultLeasePolicy p(caps);
  ResourceUsage idle;

  // Unbounded request gets the defaults (every grant is bounded).
  auto g1 = p.offer(unbounded(), idle, 0);
  ASSERT_TRUE(g1.has_value());
  EXPECT_EQ(*g1->ttl, seconds(2));
  EXPECT_EQ(*g1->max_remote_contacts, 2u);

  // Oversized request is clamped.
  auto g2 = p.offer(for_duration(seconds(100)), idle, 0);
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(*g2->ttl, seconds(10));
  auto g3 = p.offer(for_contacts(100), idle, 0);
  EXPECT_EQ(*g3->max_remote_contacts, 4u);

  // Modest request granted as asked.
  auto g4 = p.offer(for_duration(seconds(1)), idle, 0);
  EXPECT_EQ(*g4->ttl, seconds(1));
}

TEST(DefaultPolicy, RefusesWhenSaturated) {
  DefaultLeasePolicy::Caps caps;
  caps.max_stored_bytes = 1000;
  DefaultLeasePolicy p(caps);
  ResourceUsage full;
  full.stored_bytes = 1000;
  EXPECT_FALSE(p.offer(unbounded(), full, 0).has_value());

  ResourceUsage busy;
  busy.active_ops = caps.max_active_ops;
  EXPECT_FALSE(p.offer(unbounded(), busy, 0).has_value());
}

TEST(DefaultPolicy, OffersShrinkUnderPressure) {
  DefaultLeasePolicy::Caps caps;
  caps.max_stored_bytes = 1000;
  caps.pressure_threshold = 0.5;
  caps.default_ttl = seconds(10);
  caps.max_ttl = seconds(10);
  DefaultLeasePolicy p(caps);

  ResourceUsage relaxed;
  relaxed.stored_bytes = 100;
  ResourceUsage pressured;
  pressured.stored_bytes = 900;

  auto easy = p.offer(unbounded(), relaxed, 0);
  auto tight = p.offer(unbounded(), pressured, 0);
  ASSERT_TRUE(easy && tight);
  EXPECT_LT(*tight->ttl, *easy->ttl);
  EXPECT_LE(*tight->max_remote_contacts, *easy->max_remote_contacts);
}

TEST(Policies, AcceptAllGrantsVerbatim) {
  AcceptAllPolicy p;
  auto g = p.offer(for_contacts(999), {}, 0);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(*g->max_remote_contacts, 999u);
  EXPECT_FALSE(g->ttl.has_value());
}

TEST(Policies, DenyAllRefuses) {
  DenyAllPolicy p;
  EXPECT_FALSE(p.offer(unbounded(), {}, 0).has_value());
}

// ---------------- Requesters ----------------

TEST(Requesters, FlexibleAcceptsAnything) {
  FlexibleRequester r(for_duration(seconds(100)));
  EXPECT_TRUE(r.accept(for_duration(1)));
  EXPECT_TRUE(r.accept(unbounded()));
}

TEST(Requesters, StrictRefusesShortfall) {
  StrictRequester r(for_duration(seconds(10)), 0.5);
  EXPECT_TRUE(r.accept(for_duration(seconds(10))));
  EXPECT_TRUE(r.accept(for_duration(seconds(5))));
  EXPECT_FALSE(r.accept(for_duration(seconds(4))));
}

TEST(Requesters, StrictChecksEveryRequestedDimension) {
  LeaseTerms want;
  want.ttl = seconds(10);
  want.max_remote_contacts = 10;
  StrictRequester r(want, 1.0);
  LeaseTerms offer;
  offer.ttl = seconds(10);
  offer.max_remote_contacts = 9;
  EXPECT_FALSE(r.accept(offer));
  offer.max_remote_contacts = 10;
  EXPECT_TRUE(r.accept(offer));
}

TEST(Requesters, StrictTreatsAbsentOfferDimensionAsGenerous) {
  StrictRequester r(for_contacts(5), 1.0);
  EXPECT_TRUE(r.accept(unbounded()));  // no cap at all: at least as good
}

// ---------------- LeaseManager ----------------

TEST(Manager, NegotiationGrantsAndExpires) {
  EventQueue q;
  LeaseManager m(q, default_policy());
  obs::Registry reg;
  m.bind_metrics(reg);
  bool ended = false;
  m.set_end_hook([&](Owner, LeaseState s) {
    ended = true;
    EXPECT_EQ(s, LeaseState::kExpired);
  });
  const LeaseHandle l = m.negotiate(FlexibleRequester{for_duration(seconds(1))});
  ASSERT_TRUE(l);
  EXPECT_TRUE(m.active(l));
  EXPECT_EQ(m.active(), 1u);

  m.set_owner(l, {OwnerKind::kOp, 1});
  q.run_until_idle();
  EXPECT_TRUE(ended);
  EXPECT_EQ(q.now(), seconds(1));
  EXPECT_EQ(m.active(), 0u);
  EXPECT_EQ(reg.counter("lease.expired").value(), 1u);
}

TEST(Manager, PolicyRefusalReturnsNull) {
  EventQueue q;
  LeaseManager m(q, std::make_unique<DenyAllPolicy>());
  obs::Registry reg;
  m.bind_metrics(reg);
  EXPECT_FALSE(m.negotiate(FlexibleRequester{}));
  EXPECT_EQ(reg.counter("lease.refused_by_policy").value(), 1u);
}

TEST(Manager, RequesterRefusalReturnsNull) {
  EventQueue q;
  DefaultLeasePolicy::Caps caps;
  caps.max_ttl = seconds(1);
  LeaseManager m(q, default_policy(caps));
  obs::Registry reg;
  m.bind_metrics(reg);
  StrictRequester strict(for_duration(seconds(100)), 0.9);
  EXPECT_FALSE(m.negotiate(strict));
  EXPECT_EQ(reg.counter("lease.refused_by_requester").value(), 1u);
}

TEST(Manager, ReleaseCancelsExpiryTimer) {
  EventQueue q;
  LeaseManager m(q, default_policy());
  obs::Registry reg;
  m.bind_metrics(reg);
  const LeaseHandle l = m.negotiate(FlexibleRequester{for_duration(seconds(5))});
  ASSERT_TRUE(l);
  m.release(l);
  EXPECT_FALSE(m.active(l));
  EXPECT_EQ(m.active(), 0u);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(reg.counter("lease.released").value(), 1u);
  q.run_until_idle();
  EXPECT_EQ(reg.counter("lease.expired").value(), 0u);  // not expired later
}

TEST(Manager, RevokeEndsLeaseEarly) {
  EventQueue q;
  LeaseManager m(q, default_policy());
  obs::Registry reg;
  m.bind_metrics(reg);
  const LeaseHandle l = m.negotiate(FlexibleRequester{for_duration(seconds(5))});
  ASSERT_TRUE(l);
  bool revoked = false;
  m.set_end_hook(
      [&](Owner, LeaseState s) { revoked = (s == LeaseState::kRevoked); });
  m.set_owner(l, {OwnerKind::kOp, 1});
  EXPECT_TRUE(m.revoke(l));
  EXPECT_TRUE(revoked);
  EXPECT_EQ(reg.counter("lease.revoked").value(), 1u);
  EXPECT_FALSE(m.revoke(l));  // second revoke: gone
}

TEST(Manager, RevokeAllSweepsEverything) {
  EventQueue q;
  LeaseManager m(q, default_policy());
  obs::Registry reg;
  m.bind_metrics(reg);
  const LeaseHandle a = m.negotiate(FlexibleRequester{});
  const LeaseHandle b = m.negotiate(FlexibleRequester{});
  ASSERT_TRUE(a && b);
  m.revoke_all();
  EXPECT_EQ(m.active(), 0u);
  EXPECT_FALSE(m.active(a));
  EXPECT_FALSE(m.active(b));
  EXPECT_EQ(reg.counter("lease.revoked").value(), 2u);
}

TEST(Manager, UsageProbeFeedsPolicy) {
  EventQueue q;
  DefaultLeasePolicy::Caps caps;
  caps.max_stored_bytes = 100;
  LeaseManager m(q, default_policy(caps));
  std::size_t reported = 0;
  m.set_usage_probe([&] {
    ResourceUsage u;
    u.stored_bytes = reported;
    return u;
  });
  EXPECT_TRUE(m.negotiate(FlexibleRequester{}));
  reported = 100;  // saturated now
  EXPECT_FALSE(m.negotiate(FlexibleRequester{}));
}

TEST(Manager, GrantStatsCount) {
  EventQueue q;
  LeaseManager m(q, default_policy());
  obs::Registry reg;
  m.bind_metrics(reg);
  m.negotiate(FlexibleRequester{});
  m.negotiate(FlexibleRequester{});
  EXPECT_EQ(reg.counter("lease.granted").value(), 2u);
}

TEST(Manager, NegotiateIsGrantOfAgree) {
  EventQueue q1;
  EventQueue q2;
  q1.run_for(milliseconds(5));
  q2.run_for(milliseconds(5));
  LeaseManager composed(q1, default_policy());
  LeaseManager split(q2, default_policy());
  obs::Registry composed_reg;
  obs::Registry split_reg;
  composed.bind_metrics(composed_reg);
  split.bind_metrics(split_reg);
  const FlexibleRequester req{for_duration(seconds(3))};
  for (int i = 0; i < 3; ++i) {
    const LeaseHandle a = composed.negotiate(req);
    auto terms = split.agree(req);
    ASSERT_TRUE(a);
    ASSERT_TRUE(terms.has_value());
    EXPECT_EQ(split.active(), static_cast<std::size_t>(i))
        << "agree alone creates nothing";
    const LeaseHandle b = split.grant(*terms);
    ASSERT_TRUE(b);
    EXPECT_EQ(composed.id(a), split.id(b));
    EXPECT_EQ(composed.terms(a).ttl, split.terms(b).ttl);
    EXPECT_EQ(composed.terms(a).max_remote_contacts,
              split.terms(b).max_remote_contacts);
    EXPECT_EQ(composed.terms(a).max_bytes, split.terms(b).max_bytes);
    EXPECT_EQ(composed.expiry_time(a), split.expiry_time(b));
    EXPECT_TRUE(split.active(b));
  }
  EXPECT_EQ(composed.active(), split.active());
  EXPECT_EQ(q1.pending(), q2.pending());
  EXPECT_EQ(composed_reg.counter("lease.granted").value(),
            split_reg.counter("lease.granted").value());

  // Refusals count the same way, and agree refuses with nothing created.
  StrictRequester strict(for_duration(seconds(1000)), 0.9);
  EXPECT_FALSE(composed.negotiate(strict));
  EXPECT_FALSE(split.agree(strict).has_value());
  EXPECT_EQ(composed_reg.counter("lease.refused_by_requester").value(), 1u);
  EXPECT_EQ(split_reg.counter("lease.refused_by_requester").value(), 1u);
  EXPECT_EQ(composed.active(), split.active());
  q1.run_until_idle();
  q2.run_until_idle();
  EXPECT_EQ(composed_reg.counter("lease.expired").value(), 3u);
  EXPECT_EQ(split_reg.counter("lease.expired").value(), 3u);
}

TEST(Manager, AccountingOnlyGrantTakesNextIdAndCountsBothEnds) {
  EventQueue q;
  LeaseManager m(q, default_policy());
  obs::Registry reg;
  m.bind_metrics(reg);
  const LeaseHandle first =
      m.negotiate(FlexibleRequester{for_duration(seconds(2))});
  ASSERT_TRUE(first);
  const std::size_t pending = q.pending();

  ASSERT_TRUE(m.agree(FlexibleRequester{for_duration(seconds(2))}));
  const LeaseId id = m.grant_released();
  EXPECT_EQ(id, m.id(first) + 1);
  EXPECT_EQ(m.active(), 1u);
  EXPECT_EQ(q.pending(), pending) << "no expiry timer";
  EXPECT_EQ(reg.counter("lease.granted").value(), 2u);
  EXPECT_EQ(reg.counter("lease.released").value(), 1u);
  EXPECT_EQ(reg.gauge("lease.active").value(), 1.0);
#if TIAMAT_AUDIT_ENABLED
  m.audit_check("test");
#endif

  // The id stream continues past it; expiry of the real lease is unchanged.
  const LeaseHandle next = m.negotiate(FlexibleRequester{});
  ASSERT_TRUE(next);
  EXPECT_EQ(m.id(next), id + 1);
  m.release(next);
  q.run_until_idle();
  EXPECT_EQ(m.active(), 0u);
  EXPECT_EQ(reg.counter("lease.expired").value(), 1u);
  EXPECT_EQ(reg.counter("lease.released").value(), 2u);
  EXPECT_EQ(reg.counter("lease.granted").value(), 3u);
}

// ---------------- ResourcePool ----------------

TEST(Pool, TokensCountAndRelease) {
  ResourcePool p("threads", 2);
  auto t1 = p.try_acquire();
  auto t2 = p.try_acquire();
  EXPECT_TRUE(t1 && t2);
  EXPECT_EQ(p.in_use(), 2u);
  auto t3 = p.try_acquire();
  EXPECT_FALSE(t3);
  EXPECT_EQ(p.refusals(), 1u);
  t1.reset();
  EXPECT_EQ(p.in_use(), 1u);
  auto t4 = p.try_acquire();
  EXPECT_TRUE(t4);
}

TEST(Pool, TokenMoveTransfersOwnership) {
  ResourcePool p("sockets", 1);
  auto t1 = p.try_acquire();
  ResourcePool::Token t2 = std::move(t1);
  EXPECT_FALSE(t1);
  EXPECT_TRUE(t2);
  EXPECT_EQ(p.in_use(), 1u);
  t2.reset();
  EXPECT_EQ(p.in_use(), 0u);
}

TEST(Pool, TokenDestructorReleases) {
  ResourcePool p("x", 1);
  {
    auto t = p.try_acquire();
    EXPECT_EQ(p.in_use(), 1u);
  }
  EXPECT_EQ(p.in_use(), 0u);
}

TEST(Pool, ShrinkingCapacityBelowUseBlocksNewAcquires) {
  ResourcePool p("x", 2);
  auto a = p.try_acquire();
  auto b = p.try_acquire();
  p.set_capacity(1);
  EXPECT_FALSE(p.try_acquire());
  a.reset();
  b.reset();
  EXPECT_TRUE(p.try_acquire());
}

TEST(Pool, ManagerOwnsNamedPools) {
  EventQueue q;
  LeaseManager m(q, default_policy());
  auto& threads = m.pool("threads", 4);
  EXPECT_EQ(threads.capacity(), 4u);
  auto& again = m.pool("threads", 999);
  EXPECT_EQ(&threads, &again);  // same pool, capacity unchanged
  EXPECT_EQ(again.capacity(), 4u);
}

}  // namespace
}  // namespace tiamat::lease

// ---------------- Renewal (appended suite) ----------------

namespace tiamat::lease {
namespace {

using sim::seconds;

TEST(Renewal, ExtendsActiveLease) {
  sim::EventQueue q;
  LeaseManager m(q, default_policy());
  obs::Registry reg;
  m.bind_metrics(reg);
  const LeaseHandle l = m.negotiate(FlexibleRequester{for_duration(seconds(2))});
  ASSERT_TRUE(l);
  q.run_until(seconds(1));
  auto new_expiry = m.renew(l, seconds(5));
  ASSERT_TRUE(new_expiry.has_value());
  EXPECT_EQ(*new_expiry, seconds(1) + seconds(6));  // remaining 1 + extra 5
  EXPECT_EQ(m.expiry_time(l), *new_expiry);
  q.run_until(seconds(3));
  EXPECT_TRUE(m.active(l)) << "original expiry must have been cancelled";
  q.run_until_idle();
  EXPECT_FALSE(m.active(l));
  EXPECT_EQ(reg.counter("lease.expired").value(), 1u);
  EXPECT_EQ(q.now(), seconds(7));
}

TEST(Renewal, UnknownOrEndedLeaseRefused) {
  sim::EventQueue q;
  LeaseManager m(q, default_policy());
  EXPECT_FALSE(m.renew(LeaseHandle{}, seconds(1)).has_value());
  EXPECT_FALSE(m.renew(LeaseHandle{999, 0}, seconds(1)).has_value());
  const LeaseHandle l = m.negotiate(FlexibleRequester{for_duration(seconds(1))});
  ASSERT_TRUE(l);
  m.release(l);
  EXPECT_FALSE(m.renew(l, seconds(1)).has_value());
  // The freed slot's next lease is not reachable through the old handle.
  const LeaseHandle reused = m.negotiate(FlexibleRequester{});
  EXPECT_EQ(reused.slot, l.slot);
  EXPECT_FALSE(m.renew(l, seconds(1)).has_value());
  EXPECT_FALSE(m.active(l));
  EXPECT_TRUE(m.active(reused));
}

TEST(Renewal, PolicyMayGrantLessThanAsked) {
  sim::EventQueue q;
  DefaultLeasePolicy::Caps caps;
  caps.max_ttl = seconds(3);
  LeaseManager m(q, default_policy(caps));
  const LeaseHandle l = m.negotiate(FlexibleRequester{for_duration(seconds(2))});
  ASSERT_TRUE(l);
  auto e = m.renew(l, seconds(100));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, seconds(3));  // clamped to the cap
}

TEST(Renewal, SaturatedPolicyRefusesRenewal) {
  sim::EventQueue q;
  DefaultLeasePolicy::Caps caps;
  caps.max_stored_bytes = 100;
  LeaseManager m(q, default_policy(caps));
  std::size_t reported = 0;
  m.set_usage_probe([&] {
    ResourceUsage u;
    u.stored_bytes = reported;
    return u;
  });
  const LeaseHandle l = m.negotiate(FlexibleRequester{for_duration(seconds(2))});
  ASSERT_TRUE(l);
  reported = 100;  // device filled up since the grant
  EXPECT_FALSE(m.renew(l, seconds(5)).has_value());
  EXPECT_TRUE(m.active(l)) << "a refused renewal does not end the lease";
}


// ---------------- Determinism regressions ----------------

// revoke_all (and manager teardown) used to walk an unordered_map, so the
// order lease-end callbacks fired in depended on hash iteration order.
// Revocation sweeps in grant (id) order, also when freed slab slots were
// reused so that slot order differs from grant order.
TEST(Manager, RevokeAllFiresEndCallbacksInGrantOrder) {
  EventQueue q;
  LeaseManager m(q, default_policy());
  std::vector<std::uint64_t> order;
  m.set_end_hook([&](Owner o, LeaseState s) {
    if (s == LeaseState::kRevoked) order.push_back(o.id);
  });
  std::vector<LeaseHandle> held;
  auto grant = [&] {
    const LeaseHandle l = m.negotiate(FlexibleRequester{});
    m.set_owner(l, {OwnerKind::kOp, m.id(l)});
    held.push_back(l);
  };
  for (int i = 0; i < 16; ++i) grant();
  for (int i = 0; i < 16; i += 3) m.release(held[i]);
  for (int i = 0; i < 6; ++i) grant();
  m.revoke_all();
  ASSERT_EQ(order.size(), 16u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

// What the holder's end hook sees, for every way a lease ends: the lease id
// and end state, the lease.active gauge, the three end counters and the
// timers still queued. Release and revocation settle the manager's books
// (timer cancelled, gauge and counter updated) before the holder hears;
// an expiry tells the holder first, while the lease still counts as active.
TEST(LeaseManager, EndOrderIsPinned) {
  EventQueue q;
  LeaseManager m(q, default_policy());
  obs::Registry reg;
  m.bind_metrics(reg);
  std::vector<std::string> seen;
  auto record = [&](LeaseId id, LeaseState s) {
    std::ostringstream os;
    os << id << ' ' << to_string(s) << " t=" << q.now()
       << " gauge=" << reg.gauge("lease.active").value()
       << " rel=" << reg.counter("lease.released").value()
       << " rev=" << reg.counter("lease.revoked").value()
       << " exp=" << reg.counter("lease.expired").value()
       << " pending=" << q.pending();
    seen.push_back(os.str());
  };
  m.set_end_hook([&](Owner o, LeaseState s) { record(o.id, s); });
  auto grant = [&](sim::Duration ttl) {
    const LeaseHandle l = m.negotiate(FlexibleRequester{for_duration(ttl)});
    m.set_owner(l, {OwnerKind::kOp, m.id(l)});
    return l;
  };

  m.release(grant(seconds(5)));
  m.revoke(grant(seconds(5)));
  for (int i = 0; i < 3; ++i) grant(seconds(5));
  m.revoke_all();
  grant(seconds(1));
  q.run_until_idle();
  const LeaseHandle renewed = grant(seconds(1));
  q.run_for(milliseconds(500));
  ASSERT_TRUE(m.renew(renewed, seconds(2)).has_value());
  q.run_until_idle();

  const std::vector<std::string> expected = {
      "1 released t=0 gauge=0 rel=1 rev=0 exp=0 pending=0",
      "2 revoked t=0 gauge=0 rel=1 rev=1 exp=0 pending=0",
      "3 revoked t=0 gauge=2 rel=1 rev=2 exp=0 pending=2",
      "4 revoked t=0 gauge=1 rel=1 rev=3 exp=0 pending=1",
      "5 revoked t=0 gauge=0 rel=1 rev=4 exp=0 pending=0",
      "6 expired t=1000000 gauge=1 rel=1 rev=4 exp=0 pending=0",
      "7 expired t=4000000 gauge=1 rel=1 rev=4 exp=1 pending=0",
  };
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(m.active(), 0u);
  EXPECT_EQ(reg.gauge("lease.active").value(), 0.0);
  EXPECT_EQ(reg.counter("lease.expired").value(), 2u);
}
}  // namespace
}  // namespace tiamat::lease
