// Corruption-trap tests for the invariant auditor (DESIGN.md §9).
//
// Compiled only under the audit preset (TIAMAT_AUDIT). Each test breaks a
// structural invariant through the audit_corrupt_* hooks and asserts that
// the next checkpoint traps with the expected diagnostic: first through an
// installed failure handler (so the trap's content can be inspected), then
// once through the default dump-and-abort path as a death test.

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "space/local_space.h"
#include "tuple/index.h"
#include "tuple/tuple.h"
#include "tuple/waiter_index.h"

#include "tests/test_util.h"

namespace tiamat {
namespace {

using tiamat::testing::World;
using space::LocalTupleSpace;
using tuples::CompiledPattern;
using tuples::Pattern;
using tuples::Tuple;
using tuples::TupleId;
using tuples::TupleIndex;
using tuples::WaiterIndex;

/// Installs a recording handler for the test's lifetime; restores the
/// default (dump + abort) on scope exit so later tests start clean.
class TrapRecorder {
 public:
  TrapRecorder() {
    audit::set_failure_handler(
        [this](const std::string& report) { reports_.push_back(report); });
  }
  ~TrapRecorder() { audit::set_failure_handler(nullptr); }

  bool trapped() const { return !reports_.empty(); }
  const std::string& last() const { return reports_.back(); }

 private:
  std::vector<std::string> reports_;
};

TEST(AuditTrap, CleanIndexPassesAudit) {
  TupleIndex idx;
  idx.insert(1, Tuple{"req", 1});
  idx.insert(2, Tuple{"req", 2});
  idx.insert(3, Tuple{"resp", 1});
  TrapRecorder rec;
  idx.audit_check("test");
  EXPECT_FALSE(rec.trapped());
}

TEST(AuditTrap, CorruptedBucketTrapsWithDiagnostic) {
  TupleIndex idx;
  idx.insert(1, Tuple{"req", 1});
  idx.insert(2, Tuple{"req", 2});
  // Drop id 2 from the "req" bucket while it stays in by_id_ and the shard
  // id list: a keyed probe would now silently miss a stored tuple.
  idx.audit_corrupt_bucket_for_test(2);

  TrapRecorder rec;
  idx.audit_check("test");
  ASSERT_TRUE(rec.trapped());
  EXPECT_NE(rec.last().find("TIAMAT AUDIT TRAP"), std::string::npos);
  EXPECT_NE(rec.last().find("TupleIndex"), std::string::npos);
  EXPECT_NE(rec.last().find("bucket-membership"), std::string::npos);
  EXPECT_NE(rec.last().find("tuple id 2"), std::string::npos);
}

TEST(AuditTrap, RetargetedBucketSlotTrapsWithDiagnostic) {
  TupleIndex idx;
  idx.insert(1, Tuple{"req", 1});
  idx.insert(2, Tuple{"req", 2});
  idx.insert(3, Tuple{"resp", 1});
  // Point id 2's "req" slot at id 3's live entry: the bucket stays sorted
  // and every slot is a stored tuple, but a keyed "req" probe would now
  // hand back a "resp" tuple.
  idx.audit_corrupt_bucket_for_test(2, 3);

  TrapRecorder rec;
  idx.audit_check("test");
  ASSERT_TRUE(rec.trapped());
  EXPECT_NE(rec.last().find("bucket-slot"), std::string::npos);
  EXPECT_NE(rec.last().find("tuple id 3"), std::string::npos);
}

TEST(AuditTrap, StaleSlotSignatureTrapsWithDiagnostic) {
  TupleIndex idx;
  idx.insert(1, Tuple{"req", 1, "a"});
  idx.insert(2, Tuple{"req", 2, "b"});
  // Clear id 2's slot signature: a keyed probe for {"req", 2, ?} would now
  // skip the stored tuple without reading it.
  idx.audit_corrupt_signature_for_test(2);

  TrapRecorder rec;
  idx.audit_check("test");
  ASSERT_TRUE(rec.trapped());
  EXPECT_NE(rec.last().find("TupleIndex"), std::string::npos);
  EXPECT_NE(rec.last().find("slot-signature"), std::string::npos);
  EXPECT_NE(rec.last().find("tuple id 2"), std::string::npos);
}

TEST(AuditTrap, CorruptedWaiterFifoTrapsWithDiagnostic) {
  WaiterIndex<int> waiters;
  // Two unkeyed waiters land in the overflow; swapping their ids breaks
  // the ascending order the FIFO merge in candidates() depends on.
  waiters.add(1, CompiledPattern(Pattern{tuples::any()}), 0);
  waiters.add(2, CompiledPattern(Pattern{tuples::any()}), 0);
  waiters.audit_corrupt_fifo_for_test();

  TrapRecorder rec;
  waiters.audit_check("test");
  ASSERT_TRUE(rec.trapped());
  EXPECT_NE(rec.last().find("WaiterIndex"), std::string::npos);
  EXPECT_NE(rec.last().find("fifo-monotonic"), std::string::npos);
  EXPECT_NE(rec.last().find("not strictly ascending"), std::string::npos);
}

TEST(AuditTrap, SpaceCheckpointFiresOnNextOperation) {
  // Corrupting the engine underneath a live space must be caught by the
  // checkpoint inside the *next* operation, not only by a direct
  // audit_check call — that is what makes the audit preset useful while
  // running the ordinary test suite.
  World w;
  LocalTupleSpace space(w.queue, w.rng);
  space.out(Tuple{"job", 1});
  TupleId id2 = space.out(Tuple{"job", 2});
  space.audit_index().audit_corrupt_bucket_for_test(id2);

  TrapRecorder rec;
  space.out(Tuple{"job", 3});
  ASSERT_TRUE(rec.trapped());
  EXPECT_NE(rec.last().find("checkpoint: out"), std::string::npos);
  EXPECT_NE(rec.last().find("bucket-membership"), std::string::npos);
}

TEST(AuditTrap, SpaceWaiterCorruptionTrapsOnNextRegistration) {
  World w;
  LocalTupleSpace space(w.queue, w.rng);
  space.in(Pattern{tuples::any()}, sim::kNever, [](std::optional<Tuple>) {});
  space.in(Pattern{tuples::any()}, sim::kNever, [](std::optional<Tuple>) {});
  space.audit_corrupt_waiter_fifo_for_test();

  TrapRecorder rec;
  space.in(Pattern{tuples::any(), tuples::any()}, sim::kNever,
           [](std::optional<Tuple>) {});
  ASSERT_TRUE(rec.trapped());
  EXPECT_NE(rec.last().find("checkpoint: add_waiter"), std::string::npos);
  EXPECT_NE(rec.last().find("fifo-monotonic"), std::string::npos);
}

TEST(AuditTrap, DifferentialOracleCatchesProbeMiss) {
  // A bucket corruption makes the keyed probe return fewer ids than the
  // linear-scan oracle; the sampled differential check must notice. Pump
  // find_matches until the sampler fires (period 64).
  TupleIndex idx;
  idx.insert(1, Tuple{"req", 1});
  idx.insert(2, Tuple{"req", 2});
  idx.audit_corrupt_bucket_for_test(2);

  TrapRecorder rec;
  audit::reset_sampler();
  CompiledPattern p(Pattern{"req", tuples::any()});
  for (int i = 0; i < 64 && !rec.trapped(); ++i) {
    (void)idx.find_matches(p);
  }
  ASSERT_TRUE(rec.trapped());
  EXPECT_NE(rec.last().find("probe-vs-oracle"), std::string::npos);
  EXPECT_NE(rec.last().find("linear oracle 2"), std::string::npos);
}

TEST(AuditDeathTest, DefaultHandlerDumpsAndAborts) {
  TupleIndex idx;
  idx.insert(1, Tuple{"req", 1});
  idx.insert(2, Tuple{"req", 2});
  idx.audit_corrupt_bucket_for_test(2);
  // No handler installed: the trap must write the dump to stderr and abort.
  EXPECT_DEATH(idx.audit_check("death"),
               "TIAMAT AUDIT TRAP.*bucket-membership");
}

}  // namespace
}  // namespace tiamat
