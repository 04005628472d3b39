// The lease manager: first point of contact for every operation (§3.1,
// Figure 2). Agrees terms with a LeaseRequester (the two-step negotiation),
// then grants them: a lease record with its TTL expiry scheduled on the
// node's timer strand, live until it ends. A lease that ends inside the
// call that agreed it (a non-blocking op the local space satisfies) is
// granted for accounting only: an id and the grant/release counts, with no
// record or timer. Also owns named resource pools and can revoke leases as
// a last resort. Grant, refusal and end counts live only in the registry
// given to bind_metrics ("lease.*"); an unbound manager counts nothing.
//
// Records live in a slab (a deque, so a record stays put while its end hook
// grants) with a free list, and holders address them by generation-tagged
// LeaseHandle. Each record carries an Owner; when a lease ends the manager
// passes it to the one end hook, set by the instance, which reclaims what
// the lease covered. Release and revocation settle the manager's books
// (timer cancelled, lease.active and the end counter updated) before the
// hook runs; an expiry runs the hook first, so a policy asked from inside
// it still counts the lease. The record stays readable, in its end state,
// until the hook returns, and its slot is freed after.

#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

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
  /// Called once per ended lease that has an owner, with its end state.
  using EndHook = std::function<void(Owner, LeaseState)>;

  LeaseManager(transport::TimerService& queue, std::unique_ptr<LeasePolicy> policy);

  /// Cancels every scheduled expiry event *without* running the end hook:
  /// at destruction time the structures it touches are going away too.
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
  /// scheduled, a record with no owner yet.
  LeaseHandle grant(const LeaseTerms& terms);

  /// Accounting-only grant for a lease that ends inside the call that
  /// agreed it: takes the next id and counts one grant and one release, but
  /// builds no record or timer, so active() does not move.
  LeaseId grant_released();

  /// grant(agree(requester)): a null handle if either side refuses.
  LeaseHandle negotiate(const LeaseRequester& requester);

  /// Names what an active lease covers, for the end hook. Only a revocation
  /// can end a lease between its grant and this call (expiry needs the
  /// timer strand, release needs the handle): then the hook runs at once
  /// with kRevoked.
  void set_owner(LeaseHandle h, Owner owner);

  /// The instance's one dispatcher for ended leases (see EndHook).
  void set_end_hook(EndHook hook) { end_hook_ = std::move(hook); }

  // ---- One lease, by handle. Once an ended lease's hook has returned, its
  // handle reads as a default Lease: ended, no id, unbounded, no expiry.

  bool active(LeaseHandle h) const { return read(h).active(); }
  LeaseId id(LeaseHandle h) const { return read(h).id(); }
  const LeaseTerms& terms(LeaseHandle h) const { return read(h).terms(); }
  transport::Time expiry_time(LeaseHandle h) const {
    return read(h).expiry_time();
  }
  bool contacts_remaining(LeaseHandle h) const {
    return read(h).contacts_remaining();
  }
  bool charge_contact(LeaseHandle h) {
    return active(h) && records_[h.slot].lease.charge_contact();
  }
  bool charge_bytes(LeaseHandle h, std::uint64_t n) {
    return active(h) && records_[h.slot].lease.charge_bytes(n);
  }

  /// The holder is done with the lease. No-op once it has ended.
  void release(LeaseHandle h);

  /// Renewal: extends an active lease's TTL by `extra` (re-negotiated
  /// against the policy: the instance may grant less than asked, or refuse
  /// — renewal is a fresh request, not a right). Returns the new expiry
  /// time, or nullopt if the lease has ended or the policy refuses.
  /// Budgets (contacts/bytes) are unchanged.
  std::optional<transport::Time> renew(LeaseHandle h,
                                       transport::Duration extra);

  /// Last-resort revocation (§2.5): ends the lease early, running the end
  /// hook so held resources are reclaimed. False if it had already ended.
  bool revoke(LeaseHandle h);

  /// Revokes every active lease in grant (id) order; models a device about
  /// to power down.
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

  /// Live leases. An expiring lease counts until its end hook returns.
  std::size_t active() const { return live_; }
  transport::Time now() const { return queue_.now(); }

#if TIAMAT_AUDIT_ENABLED
  /// Slab re-verification (audit builds only): the free list names each
  /// free slot once; every record in use has an id below next_id_; an
  /// active one with a TTL has its expiry timer armed with a non-past
  /// deadline; an ended one (its hook still running) has no timer; and the
  /// live count lies between the active records and those plus the ended
  /// ones. Traps through audit::fail on violation.
  void audit_check(const char* checkpoint) const;
#endif

 private:
  // The owner is kept as two fields, not an Owner, so that the record
  // packs into 96 bytes.
  struct Record {
    Lease lease;
    transport::EventId expiry_event = transport::kInvalidEvent;
    std::uint64_t owner_id = 0;
    std::uint32_t gen = 0;  ///< bumped when the slot is freed
    OwnerKind owner_kind = OwnerKind::kNone;
  };

  /// The lease `h` names, or a default (ended) Lease once its slot is
  /// freed or reused.
  const Lease& read(LeaseHandle h) const {
    static const Lease kGone;
    if (h.slot >= records_.size() || records_[h.slot].gen != h.gen) {
      return kGone;
    }
    return records_[h.slot].lease;
  }

  /// The live usage a policy offer is made against.
  ResourceUsage usage() const;
  /// Schedules the expiry of the lease `h` names at `when`.
  transport::EventId arm_expiry(LeaseHandle h, transport::Time when);
  /// Ends the active lease in `slot` in state `s`: books, hook (in the
  /// order the header comment gives), then frees the slot.
  void end(std::uint32_t slot, LeaseState s);
  /// Cancels the record's timer and counts its end.
  void settle(Record& r, LeaseState s);

  transport::TimerService& queue_;
  std::unique_ptr<LeasePolicy> policy_;
  std::function<ResourceUsage()> usage_probe_;
  EndHook end_hook_;
  LeaseId next_id_ = 1;

  std::deque<Record> records_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
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
