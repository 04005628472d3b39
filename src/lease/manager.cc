#include "lease/manager.h"

#include <utility>
#include <vector>

#if TIAMAT_AUDIT_ENABLED
#include <sstream>
#endif

namespace tiamat::lease {

#if TIAMAT_AUDIT_ENABLED
void LeaseManager::audit_check(const char* checkpoint) const {
  auto trap = [&](const std::string& invariant, const std::string& detail) {
    std::ostringstream os;
    os << detail << " | active " << active_.size() << ", next id "
       << next_id_;
    audit::fail("LeaseManager", checkpoint, invariant, os.str());
  };
  for (const auto& [id, entry] : active_) {
    if (!entry.lease) {
      std::ostringstream os;
      os << "active table holds null lease under id " << id;
      trap("lease-live", os.str());
      return;
    }
    if (entry.lease->id() != id) {
      std::ostringstream os;
      os << "lease " << entry.lease->id() << " registered under id " << id;
      trap("lease-live", os.str());
      return;
    }
    if (id >= next_id_) {
      std::ostringstream os;
      os << "lease id " << id << " >= next id " << next_id_;
      trap("id-allocation", os.str());
      return;
    }
    // A terminal lease may only appear here mid-reclamation: the expiry
    // timer fired (event already cleared, deadline passed) and expire()'s
    // end callbacks are still running — one of them may re-enter the
    // manager and land on this checkpoint before finish_bookkeeping
    // erases the entry. Anything else is a stale entry that would keep
    // charging the policy's usage accounting forever.
    if (!entry.lease->active()) {
      const bool mid_expiry = entry.lease->state() == LeaseState::kExpired &&
                              entry.expiry_event == transport::kInvalidEvent &&
                              entry.lease->expiry_time() != transport::kNever &&
                              entry.lease->expiry_time() <= queue_.now();
      if (!mid_expiry) {
        std::ostringstream os;
        os << "lease " << id << " tracked as active but in a terminal state";
        trap("lease-live", os.str());
        return;
      }
      continue;
    }
    const transport::Time expiry = entry.lease->expiry_time();
    if (expiry != transport::kNever) {
      if (entry.expiry_event == transport::kInvalidEvent) {
        std::ostringstream os;
        os << "lease " << id << " has a TTL but no expiry timer armed";
        trap("expiry-armed", os.str());
        return;
      }
      if (expiry < queue_.now()) {
        std::ostringstream os;
        os << "lease " << id << " expiry " << expiry
           << " already passed (now " << queue_.now() << ")";
        trap("expiry-armed", os.str());
        return;
      }
    }
  }
}
#endif  // TIAMAT_AUDIT_ENABLED

LeaseManager::LeaseManager(transport::TimerService& queue,
                           std::unique_ptr<LeasePolicy> policy)
    : queue_(queue), policy_(std::move(policy)) {}

LeaseManager::~LeaseManager() {
  for (auto& [id, entry] : active_) {
    (void)id;
    if (entry.expiry_event != transport::kInvalidEvent) {
      queue_.cancel(entry.expiry_event);
    }
  }
}

ResourceUsage LeaseManager::usage() const {
  ResourceUsage usage;
  if (usage_probe_) usage = usage_probe_();
  usage.active_leases = active_.size();
  usage.active_ops = active_.size();
  return usage;
}

transport::EventId LeaseManager::arm_expiry(LeaseId id, transport::Time when) {
  return queue_.schedule_at(when, [this, id] {
    auto it = active_.find(id);
    if (it == active_.end()) return;
    auto l = it->second.lease;
    it->second.expiry_event = transport::kInvalidEvent;
    l->expire();  // fires end callbacks; bookkeeping below
    finish_bookkeeping(id, LeaseState::kExpired);
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

std::shared_ptr<Lease> LeaseManager::grant(const LeaseTerms& terms) {
  LeaseId id = next_id_++;
  auto lease = std::make_shared<Lease>(id, terms, queue_.now());
  Active entry;
  entry.lease = lease;
  if (terms.ttl) entry.expiry_event = arm_expiry(id, lease->expiry_time());
  // Bookkeeping when the *holder* ends the lease (release) or it is revoked
  // through the Lease object directly.
  lease->on_end([this, id](LeaseState state) {
    if (state != LeaseState::kExpired) finish_bookkeeping(id, state);
  });
  active_.emplace(id, std::move(entry));
  if (metrics_.granted) ++*metrics_.granted;
  if (metrics_.active) metrics_.active->set(static_cast<double>(active_.size()));
  TIAMAT_AUDIT_CHECK(audit_check("grant"));
  return lease;
}

LeaseId LeaseManager::grant_released() {
  const LeaseId id = next_id_++;
  if (metrics_.granted) ++*metrics_.granted;
  if (metrics_.released) ++*metrics_.released;
  TIAMAT_AUDIT_CHECK(audit_check("grant_released"));
  return id;
}

std::shared_ptr<Lease> LeaseManager::negotiate(
    const LeaseRequester& requester) {
  auto terms = agree(requester);
  return terms ? grant(*terms) : nullptr;
}

void LeaseManager::finish_bookkeeping(LeaseId id, LeaseState state) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  if (it->second.expiry_event != transport::kInvalidEvent) {
    queue_.cancel(it->second.expiry_event);
  }
  active_.erase(it);
  switch (state) {
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
  if (metrics_.active) metrics_.active->set(static_cast<double>(active_.size()));
  TIAMAT_AUDIT_CHECK(audit_check("finish_bookkeeping"));
}

std::optional<transport::Time> LeaseManager::renew(LeaseId id,
                                             transport::Duration extra) {
  auto it = active_.find(id);
  if (it == active_.end()) return std::nullopt;
  auto lease = it->second.lease;
  if (!lease->active()) return std::nullopt;

  // Re-negotiate the extension against current conditions.
  const transport::Time now = queue_.now();
  const transport::Duration remaining =
      lease->expiry_time() == transport::kNever ? 0 : lease->expiry_time() - now;
  LeaseTerms ask;
  ask.ttl = (remaining > 0 ? remaining : 0) + extra;
  auto offer = policy_->offer(ask, usage(), now);
  if (!offer || !offer->ttl) return std::nullopt;

  // Rebase the lease's TTL at `now` and reschedule expiry.
  const transport::Time new_expiry = now + *offer->ttl;
  lease->set_ttl(new_expiry - lease->granted_at());
  if (it->second.expiry_event != transport::kInvalidEvent) {
    queue_.cancel(it->second.expiry_event);
  }
  it->second.expiry_event = arm_expiry(id, new_expiry);
  TIAMAT_AUDIT_CHECK(audit_check("renew"));
  return new_expiry;
}

bool LeaseManager::revoke(LeaseId id) {
  auto it = active_.find(id);
  if (it == active_.end()) return false;
  auto lease = it->second.lease;  // keep alive across callbacks
  lease->revoke();                // triggers finish_bookkeeping via on_end
  return true;
}

void LeaseManager::revoke_all() {
  std::vector<std::shared_ptr<Lease>> leases;
  leases.reserve(active_.size());
  for (auto& [id, entry] : active_) {
    (void)id;
    leases.push_back(entry.lease);
  }
  for (auto& l : leases) l->revoke();
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
