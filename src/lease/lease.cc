#include "lease/lease.h"

#include <sstream>
#include <utility>

namespace tiamat::lease {

std::string LeaseTerms::to_string() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ", ";
    first = false;
  };
  if (ttl) {
    sep();
    os << "ttl=" << *ttl << "us";
  }
  if (max_remote_contacts) {
    sep();
    os << "contacts=" << *max_remote_contacts;
  }
  if (max_bytes) {
    sep();
    os << "bytes=" << *max_bytes;
  }
  if (first) os << "unbounded";
  os << "}";
  return os.str();
}

LeaseTerms for_duration(transport::Duration ttl) {
  LeaseTerms t;
  t.ttl = ttl;
  return t;
}

LeaseTerms for_contacts(std::uint32_t n) {
  LeaseTerms t;
  t.max_remote_contacts = n;
  return t;
}

LeaseTerms for_bytes(std::uint64_t n) {
  LeaseTerms t;
  t.max_bytes = n;
  return t;
}

LeaseTerms unbounded() { return LeaseTerms{}; }

const char* to_string(LeaseState s) {
  switch (s) {
    case LeaseState::kActive:
      return "active";
    case LeaseState::kExpired:
      return "expired";
    case LeaseState::kRevoked:
      return "revoked";
    case LeaseState::kReleased:
      return "released";
  }
  return "?";
}

Lease::Lease(LeaseId id, LeaseTerms terms, transport::Time granted_at)
    : id_(id),
      terms_(std::move(terms)),
      granted_at_(granted_at),
      state_(LeaseState::kActive) {}

transport::Time Lease::expiry_time() const {
  if (!terms_.ttl) return transport::kNever;
  return granted_at_ + *terms_.ttl;
}

bool Lease::charge_contact() {
  if (!active()) return false;
  if (terms_.max_remote_contacts &&
      contacts_used_ >= *terms_.max_remote_contacts) {
    return false;
  }
  ++contacts_used_;
  return true;
}

bool Lease::charge_bytes(std::uint64_t n) {
  if (!active()) return false;
  if (terms_.max_bytes && bytes_used_ + n > *terms_.max_bytes) return false;
  bytes_used_ += n;
  return true;
}

bool Lease::contacts_remaining() const {
  if (!active()) return false;
  return !terms_.max_remote_contacts ||
         contacts_used_ < *terms_.max_remote_contacts;
}

void Lease::finish(LeaseState s) {
  if (active()) state_ = s;
}

}  // namespace tiamat::lease
