#include "lease/manager.h"

#include <algorithm>
#include <utility>
#include <vector>

#if TIAMAT_AUDIT_ENABLED
#include <sstream>
#endif

namespace tiamat::lease {

#if TIAMAT_AUDIT_ENABLED
void LeaseManager::audit_check(const char* checkpoint) const {
  auto trap = [&](const char* invariant, const auto&... detail) {
    std::ostringstream os;
    (os << ... << detail);
    os << " | live " << live_ << ", slots " << records_.size() << ", free "
       << free_.size() << ", next id " << next_id_;
    audit::fail("LeaseManager", checkpoint, invariant, os.str());
  };
  std::vector<bool> is_free(records_.size(), false);
  for (const std::uint32_t slot : free_) {
    if (slot >= records_.size() || is_free[slot]) {
      return trap("slab", "free list names slot ", slot, " twice or past "
                  "the end");
    }
    is_free[slot] = true;
  }
  std::size_t active = 0;
  std::size_t ending = 0;
  for (std::size_t slot = 0; slot < records_.size(); ++slot) {
    const Record& r = records_[slot];
    const Lease& l = r.lease;
    const bool armed = r.expiry_event != transport::kInvalidEvent;
    if (is_free[slot]) {
      if (armed) return trap("slab", "free slot ", slot, " holds a timer");
      continue;
    }
    if (l.id() == kNoLease || l.id() >= next_id_) {
      return trap("id-allocation", "lease id ", l.id(), " in slot ", slot);
    }
    // An ended record in use is one whose end hook is still running: its
    // timer was cancelled, or fired and was cleared, before the hook.
    if (!l.active()) {
      if (armed) return trap("lease-live", "lease ", l.id(), " timer armed");
      ++ending;
      continue;
    }
    ++active;
    const transport::Time expiry = l.expiry_time();
    if (expiry != transport::kNever && !armed) {
      return trap("expiry-armed", "lease ", l.id(), " has a TTL but no timer");
    }
    if (expiry < queue_.now()) {
      return trap("expiry-armed", "lease ", l.id(), " expiry ", expiry,
                  " already passed (now ", queue_.now(), ")");
    }
  }
  // An expiring lease still counts while its hook runs; a released or
  // revoked one stopped counting before it.
  if (live_ < active || live_ > active + ending) {
    trap("live-count", active, " active and ", ending, " ending records");
  }
}
#endif  // TIAMAT_AUDIT_ENABLED

LeaseManager::LeaseManager(transport::TimerService& queue,
                           std::unique_ptr<LeasePolicy> policy)
    : queue_(queue), policy_(std::move(policy)) {}

LeaseManager::~LeaseManager() {
  std::vector<std::pair<LeaseId, transport::EventId>> timers;
  for (const Record& r : records_) {
    if (r.expiry_event != transport::kInvalidEvent) {
      timers.emplace_back(r.lease.id(), r.expiry_event);
    }
  }
  std::sort(timers.begin(), timers.end());
  for (const auto& [id, event] : timers) {
    (void)id;
    queue_.cancel(event);
  }
}

ResourceUsage LeaseManager::usage() const {
  ResourceUsage usage;
  if (usage_probe_) usage = usage_probe_();
  usage.active_leases = live_;
  usage.active_ops = live_;
  return usage;
}

transport::EventId LeaseManager::arm_expiry(LeaseHandle h,
                                            transport::Time when) {
  return queue_.schedule_at(when, [this, h] {
    if (!active(h)) return;
    records_[h.slot].expiry_event = transport::kInvalidEvent;
    end(h.slot, LeaseState::kExpired);
  });
}

std::optional<LeaseTerms> LeaseManager::agree(const LeaseRequester& requester) {
  auto offer = policy_->offer(requester.desired(), usage(), queue_.now());
  if (!offer) {
    if (metrics_.refused_by_policy) ++*metrics_.refused_by_policy;
    return std::nullopt;
  }
  if (!requester.accept(*offer)) {
    if (metrics_.refused_by_requester) ++*metrics_.refused_by_requester;
    return std::nullopt;
  }
  return offer;
}

LeaseHandle LeaseManager::grant(const LeaseTerms& terms) {
  const LeaseId id = next_id_++;
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Record& r = records_[slot];
  r.lease = Lease(id, terms, queue_.now());
  r.owner_kind = OwnerKind::kNone;
  r.owner_id = 0;
  const LeaseHandle h{slot, r.gen};
  if (terms.ttl) r.expiry_event = arm_expiry(h, r.lease.expiry_time());
  ++live_;
  if (metrics_.granted) ++*metrics_.granted;
  if (metrics_.active) metrics_.active->set(static_cast<double>(live_));
  TIAMAT_AUDIT_CHECK(audit_check("grant"));
  return h;
}

LeaseId LeaseManager::grant_released() {
  const LeaseId id = next_id_++;
  if (metrics_.granted) ++*metrics_.granted;
  if (metrics_.released) ++*metrics_.released;
  TIAMAT_AUDIT_CHECK(audit_check("grant_released"));
  return id;
}

LeaseHandle LeaseManager::negotiate(const LeaseRequester& requester) {
  auto terms = agree(requester);
  return terms ? grant(*terms) : LeaseHandle{};
}

void LeaseManager::set_owner(LeaseHandle h, Owner owner) {
  if (active(h)) {
    Record& r = records_[h.slot];
    r.owner_kind = owner.kind;
    r.owner_id = owner.id;
  } else if (end_hook_ && owner.kind != OwnerKind::kNone) {
    end_hook_(owner, LeaseState::kRevoked);
  }
}

void LeaseManager::end(std::uint32_t slot, LeaseState s) {
  // A deque never moves its elements, so `r` survives grants in the hook.
  Record& r = records_[slot];
  r.lease.finish(s);
  if (s != LeaseState::kExpired) settle(r, s);
  if (end_hook_ && r.owner_kind != OwnerKind::kNone) {
    end_hook_(Owner{r.owner_kind, r.owner_id}, s);
  }
  if (s == LeaseState::kExpired) settle(r, s);
  ++r.gen;
  free_.push_back(slot);
}

void LeaseManager::settle(Record& r, LeaseState s) {
  if (r.expiry_event != transport::kInvalidEvent) {
    queue_.cancel(r.expiry_event);
    r.expiry_event = transport::kInvalidEvent;
  }
  --live_;
  switch (s) {
    case LeaseState::kExpired:
      if (metrics_.expired) ++*metrics_.expired;
      break;
    case LeaseState::kRevoked:
      if (metrics_.revoked) ++*metrics_.revoked;
      break;
    case LeaseState::kReleased:
      if (metrics_.released) ++*metrics_.released;
      break;
    case LeaseState::kActive:
      break;
  }
  if (metrics_.active) metrics_.active->set(static_cast<double>(live_));
  TIAMAT_AUDIT_CHECK(audit_check("settle"));
}

void LeaseManager::release(LeaseHandle h) {
  if (active(h)) end(h.slot, LeaseState::kReleased);
}

std::optional<transport::Time> LeaseManager::renew(LeaseHandle h,
                                                   transport::Duration extra) {
  if (!active(h)) return std::nullopt;
  Record& r = records_[h.slot];

  // Re-negotiate the extension against current conditions.
  const transport::Time now = queue_.now();
  const transport::Time expiry = r.lease.expiry_time();
  const transport::Duration remaining =
      expiry == transport::kNever ? 0 : expiry - now;
  LeaseTerms ask;
  ask.ttl = (remaining > 0 ? remaining : 0) + extra;
  auto offer = policy_->offer(ask, usage(), now);
  if (!offer || !offer->ttl) return std::nullopt;

  // Rebase the lease's TTL at `now` and reschedule expiry.
  const transport::Time new_expiry = now + *offer->ttl;
  r.lease.set_ttl(new_expiry - r.lease.granted_at());
  if (r.expiry_event != transport::kInvalidEvent) {
    queue_.cancel(r.expiry_event);
  }
  r.expiry_event = arm_expiry(h, new_expiry);
  TIAMAT_AUDIT_CHECK(audit_check("renew"));
  return new_expiry;
}

bool LeaseManager::revoke(LeaseHandle h) {
  if (!active(h)) return false;
  end(h.slot, LeaseState::kRevoked);
  return true;
}

void LeaseManager::revoke_all() {
  std::vector<std::pair<LeaseId, LeaseHandle>> live;
  live.reserve(live_);
  for (std::size_t slot = 0; slot < records_.size(); ++slot) {
    const Record& r = records_[slot];
    if (r.lease.active()) {
      live.emplace_back(r.lease.id(),
                        LeaseHandle{static_cast<std::uint32_t>(slot), r.gen});
    }
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // A hook may end later leases itself; revoke skips those.
  for (const auto& [id, h] : live) {
    (void)id;
    revoke(h);
  }
}

void LeaseManager::set_usage_probe(std::function<ResourceUsage()> probe) {
  usage_probe_ = std::move(probe);
}

void LeaseManager::bind_metrics(obs::Registry& r) {
  metrics_.granted = &r.counter("lease.granted");
  metrics_.refused_by_policy = &r.counter("lease.refused_by_policy");
  metrics_.refused_by_requester = &r.counter("lease.refused_by_requester");
  metrics_.expired = &r.counter("lease.expired");
  metrics_.revoked = &r.counter("lease.revoked");
  metrics_.released = &r.counter("lease.released");
  metrics_.active = &r.gauge("lease.active");
}

void LeaseManager::set_policy(std::unique_ptr<LeasePolicy> policy) {
  policy_ = std::move(policy);
}

ResourcePool& LeaseManager::pool(const std::string& name,
                                 std::size_t default_capacity) {
  auto it = pools_.find(name);
  if (it == pools_.end()) {
    it = pools_
             .emplace(name,
                      std::make_unique<ResourcePool>(name, default_capacity))
             .first;
  }
  return *it->second;
}

}  // namespace tiamat::lease
