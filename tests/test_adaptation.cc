// Tests for the §5.4/§5.5 adaptive lease policy: the policy models
// application behaviour from operation outcomes and adjusts its default
// grants, within the caps (the §5.6 rule: resource pressure always wins).

#include <gtest/gtest.h>

#include <memory>

#include "core/adaptation.h"
#include "core/instance.h"
#include "tests/test_util.h"

namespace tiamat::core {
namespace {

using tuples::any_int;
using tuples::Pattern;
using tuples::Tuple;
using tiamat::testing::World;

lease::DefaultLeasePolicy::Caps small_caps() {
  lease::DefaultLeasePolicy::Caps caps;
  caps.default_ttl = sim::seconds(4);
  caps.max_ttl = sim::seconds(120);
  caps.default_contacts = 8;
  caps.max_contacts = 64;
  return caps;
}

AdaptiveTuning fast_tuning() {
  AdaptiveTuning t;
  t.window = 8;  // adapt quickly in tests
  return t;
}

// ---------------- Unit level ----------------

TEST(Adaptive, ExpiriesStretchTtl) {
  AdaptiveLeasePolicy p(small_caps(), fast_tuning());
  const auto before = p.current_ttl();
  for (int i = 0; i < 8; ++i) p.observe_expiry();
  EXPECT_GT(p.current_ttl(), before);
  EXPECT_EQ(p.adaptation_rounds(), 1u);
}

TEST(Adaptive, QuickMatchesShrinkTtl) {
  AdaptiveLeasePolicy p(small_caps(), fast_tuning());
  const auto before = p.current_ttl();
  for (int i = 0; i < 8; ++i) {
    p.observe_match(sim::milliseconds(10), sim::seconds(4));
  }
  EXPECT_LT(p.current_ttl(), before);
}

TEST(Adaptive, TtlStaysWithinBounds) {
  auto tuning = fast_tuning();
  tuning.min_ttl = sim::seconds(2);
  tuning.max_ttl = sim::seconds(8);
  AdaptiveLeasePolicy p(small_caps(), tuning);
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 8; ++i) p.observe_expiry();
  }
  EXPECT_LE(p.current_ttl(), sim::seconds(8));
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 8; ++i) {
      p.observe_match(sim::milliseconds(1), p.current_ttl());
    }
  }
  EXPECT_GE(p.current_ttl(), sim::seconds(2));
}

TEST(Adaptive, MixedOutcomesHoldSteady) {
  AdaptiveLeasePolicy p(small_caps(), fast_tuning());
  const auto before = p.current_ttl();
  // 12% expiries, slow-ish matches: inside the dead band.
  for (int i = 0; i < 7; ++i) {
    p.observe_match(sim::seconds(3), sim::seconds(4));
  }
  p.observe_expiry();
  EXPECT_EQ(p.current_ttl(), before);
}

TEST(Adaptive, OffersUseAdaptedDefaults) {
  AdaptiveLeasePolicy p(small_caps(), fast_tuning());
  for (int i = 0; i < 8; ++i) p.observe_expiry();
  const auto grown = p.current_ttl();
  auto offer = p.offer(lease::unbounded(), {}, 0);
  ASSERT_TRUE(offer.has_value());
  EXPECT_EQ(*offer->ttl, grown);
}

TEST(Adaptive, ExplicitRequestsBypassAdaptation) {
  AdaptiveLeasePolicy p(small_caps(), fast_tuning());
  for (int i = 0; i < 8; ++i) p.observe_expiry();
  auto offer = p.offer(lease::for_duration(sim::seconds(1)), {}, 0);
  ASSERT_TRUE(offer.has_value());
  EXPECT_EQ(*offer->ttl, sim::seconds(1)) << "an explicit ask is honoured";
}

TEST(Adaptive, ResourcePressureStillWins) {
  auto caps = small_caps();
  caps.max_stored_bytes = 100;
  AdaptiveLeasePolicy p(caps, fast_tuning());
  lease::ResourceUsage saturated;
  saturated.stored_bytes = 100;
  EXPECT_FALSE(p.offer(lease::unbounded(), saturated, 0).has_value())
      << "§5.6: adaptation never overrides saturation refusal";
}

// ---------------- End to end ----------------

TEST(AdaptiveE2E, InstanceStretchesLeasesInSlowEnvironment) {
  World w;
  Config cfg;
  cfg.name = "adaptive";
  cfg.lease_caps = small_caps();
  auto policy = std::make_unique<AdaptiveLeasePolicy>(small_caps(),
                                                      fast_tuning());
  auto* policy_ptr = policy.get();
  Instance consumer(w.tx, cfg, std::move(policy));
  Instance producer(w.tx, Config{});

  const auto ttl_before = policy_ptr->current_ttl();

  // Environment where matches appear *after* the default 4 s lease: every
  // op expires, so the policy should learn to wait longer.
  for (int i = 0; i < 10; ++i) {
    bool fired = false;
    consumer.in(Pattern{"slow", any_int()}, [&](auto) { fired = true; });
    w.run_for(sim::seconds(30));  // no tuple arrives in time
    EXPECT_TRUE(fired);
  }
  EXPECT_GT(policy_ptr->current_ttl(), ttl_before)
      << "repeated expiries must stretch granted TTLs";

  // With the longer leases (>= 6 s after one adaptation round), a
  // producer that takes 5 s is now matched — it would have missed the
  // original 4 s lease.
  bool got = false;
  consumer.in(Pattern{"slow", any_int()}, [&](auto r) {
    got = r.has_value();
  });
  w.queue.schedule_after(sim::seconds(5),
                         [&] { producer.out(Tuple{"slow", 1}); });
  w.run_for(sim::seconds(30));
  EXPECT_TRUE(got) << "the adapted lease should now outlast the 5 s gap";
}

TEST(AdaptiveE2E, InstanceShrinksLeasesInFastEnvironment) {
  World w;
  Config cfg;
  cfg.name = "adaptive";
  auto policy = std::make_unique<AdaptiveLeasePolicy>(small_caps(),
                                                      fast_tuning());
  auto* policy_ptr = policy.get();
  Instance consumer(w.tx, cfg, std::move(policy));
  Instance producer(w.tx, Config{});

  const auto ttl_before = policy_ptr->current_ttl();
  for (int i = 0; i < 20; ++i) {
    producer.out(Tuple{"fast", i});
  }
  w.run_for(sim::milliseconds(100));
  for (int i = 0; i < 20; ++i) {
    consumer.inp(Pattern{"fast", any_int()}, [](auto) {});
    w.run_for(sim::milliseconds(200));
  }
  EXPECT_LT(policy_ptr->current_ttl(), ttl_before)
      << "instant matches must shrink granted TTLs";
}

TEST(AdaptiveE2E, LocalHitsCountAsInstantMatches) {
  World w;
  Config cfg;
  cfg.name = "adaptive";
  auto policy = std::make_unique<AdaptiveLeasePolicy>(small_caps(),
                                                      fast_tuning());
  auto* policy_ptr = policy.get();
  Instance inst(w.tx, cfg, std::move(policy));

  const auto ttl_before = policy_ptr->current_ttl();
  for (int i = 0; i < 20; ++i) inst.out(Tuple{"here", i});
  int hits = 0;
  for (int i = 0; i < 20; ++i) {
    inst.inp(Pattern{"here", any_int()}, [&](auto r) {
      if (r && r->source == inst.node()) ++hits;
    });
  }
  EXPECT_EQ(hits, 20);
  EXPECT_GE(policy_ptr->adaptation_rounds(), 1u);
  EXPECT_LT(policy_ptr->current_ttl(), ttl_before)
      << "local hits are instant matches and must shrink granted TTLs";
}

}  // namespace
}  // namespace tiamat::core
