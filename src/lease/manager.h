// The lease manager: first point of contact for every operation (§3.1,
// Figure 2). Agrees terms with a LeaseRequester (the two-step negotiation),
// then grants them: an active lease with its TTL expiry scheduled on the
// node's timer strand, tracked until it ends. A lease that ends inside the
// call that agreed it (a non-blocking op the local space satisfies) is
// granted for accounting only: an id and the grant/release counts, with no
// Lease object, timer or table entry. Also owns named resource pools and
// can revoke leases as a last resort. Grant, refusal and end counts live
// only in the registry given to bind_metrics ("lease.*"); an unbound
// manager counts nothing.

#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "audit/audit.h"
#include "lease/factory.h"
#include "lease/lease.h"
#include "lease/policy.h"
#include "lease/requester.h"
#include "obs/metrics.h"
#include "transport/timer.h"

namespace tiamat::lease {

class LeaseManager {
 public:
  LeaseManager(transport::TimerService& queue, std::unique_ptr<LeasePolicy> policy);

  /// Cancels every scheduled expiry event *without* firing lease-end
  /// callbacks: at destruction time the structures those callbacks touch
  /// are going away too.
  ~LeaseManager();

  LeaseManager(const LeaseManager&) = delete;
  LeaseManager& operator=(const LeaseManager&) = delete;

  /// Two-step negotiation (§3.1.1): the requester's desired terms go to the
  /// policy, which sees the instance's live usage; the policy's offer goes
  /// back to the requester. Returns the accepted terms, or nullopt (counted
  /// as a policy or requester refusal) — in which case no further work may
  /// be performed on the operation. Creates nothing and schedules nothing.
  std::optional<LeaseTerms> agree(const LeaseRequester& requester);

  /// Turns agreed terms into an active lease: the next id, TTL expiry
  /// scheduled, tracked until it ends.
  std::shared_ptr<Lease> grant(const LeaseTerms& terms);

  /// Accounting-only grant for a lease that ends inside the call that
  /// agreed it: takes the next id and counts one grant and one release, but
  /// builds no Lease, timer or table entry, so active() does not move.
  LeaseId grant_released();

  /// grant(agree(requester)): nullptr if either side refuses.
  std::shared_ptr<Lease> negotiate(const LeaseRequester& requester);

  /// Renewal: extends an active lease's TTL by `extra` (re-negotiated
  /// against the policy: the instance may grant less than asked, or refuse
  /// — renewal is a fresh request, not a right). Returns the new expiry
  /// time, or nullopt if the lease is unknown/inactive or the policy
  /// refuses. Budgets (contacts/bytes) are unchanged.
  std::optional<transport::Time> renew(LeaseId id, transport::Duration extra);

  /// Last-resort revocation (§2.5): ends the lease early, firing its end
  /// callbacks so held resources are reclaimed.
  bool revoke(LeaseId id);

  /// Revokes every active lease; models a device about to power down.
  void revoke_all();

  /// The instance installs a probe so policies see live resource usage
  /// (local space footprint etc.). Ops/lease counts are added by the
  /// manager itself.
  void set_usage_probe(std::function<ResourceUsage()> probe);

  void set_policy(std::unique_ptr<LeasePolicy> policy);
  LeasePolicy& policy() { return *policy_; }

  /// Counts grants, refusals, expiries, revocations and releases in `r`
  /// under "lease.*" (plus the lease.active gauge). These instruments are
  /// the manager's only record of them.
  void bind_metrics(obs::Registry& r);

  /// Named counting pools for instance-managed resources (threads, sockets,
  /// ...). Created on first use with `default_capacity`.
  ResourcePool& pool(const std::string& name,
                     std::size_t default_capacity = 16);

  std::size_t active() const { return active_.size(); }
  transport::Time now() const { return queue_.now(); }

#if TIAMAT_AUDIT_ENABLED
  /// Lease-table re-verification (audit builds only): every tracked lease
  /// is live (state kActive), registered under its own id, allocated below
  /// next_id_, and — when it carries a TTL — has its expiry timer armed
  /// with a non-past deadline. Traps through audit::fail on violation.
  void audit_check(const char* checkpoint) const;
#endif

 private:
  /// The live usage a policy offer is made against.
  ResourceUsage usage() const;
  /// Schedules lease `id`'s expiry at `when`.
  transport::EventId arm_expiry(LeaseId id, transport::Time when);
  void finish_bookkeeping(LeaseId id, LeaseState state);

  transport::TimerService& queue_;
  std::unique_ptr<LeasePolicy> policy_;
  std::function<ResourceUsage()> usage_probe_;
  LeaseId next_id_ = 1;

  struct Active {
    std::shared_ptr<Lease> lease;
    transport::EventId expiry_event = transport::kInvalidEvent;
  };
  // Ordered so teardown and revoke_all fire in ascending-id (grant) order —
  // lease-end callbacks are observable, so their order must be
  // deterministic.
  std::map<LeaseId, Active> active_;
  std::map<std::string, std::unique_ptr<ResourcePool>> pools_;

  struct Metrics {
    obs::Counter* granted = nullptr;
    obs::Counter* refused_by_policy = nullptr;
    obs::Counter* refused_by_requester = nullptr;
    obs::Counter* expired = nullptr;
    obs::Counter* revoked = nullptr;
    obs::Counter* released = nullptr;
    obs::Gauge* active = nullptr;
  } metrics_;
};

}  // namespace tiamat::lease
