// Leases: Tiamat's fine-grained resource-management primitive (paper §2.5).
//
// Every operation is leased. A lease represents "the effort a Tiamat
// instance is willing to dedicate to carrying out the operation" and may be
// bounded in time *or in other measures* — this implementation supports a
// virtual-time TTL, a remote-contact budget, and a byte budget, any
// combination. Leases are valid only at the instance that granted them, are
// best-effort (revocable as a last resort), and expiry allows the leased
// resource to be reclaimed.
//
// Since a lease cannot leave the instance that granted it, nothing shares
// ownership of one. The granting LeaseManager keeps every lease as a record
// in its slab, and a holder names its lease by a LeaseHandle. A Lease is the
// value part of such a record: terms, budgets used and state, with no
// callbacks. The record's Owner says what the lease was granted for, and
// when the lease ends the manager passes that Owner to the instance's one
// end hook, which reclaims the resource.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "transport/types.h"

namespace tiamat::lease {

using LeaseId = std::uint64_t;
inline constexpr LeaseId kNoLease = 0;

/// The dimensions a lease bounds. An absent field means "unbounded in that
/// dimension" as far as the *request* goes; the granting policy will usually
/// clamp it.
struct LeaseTerms {
  std::optional<transport::Duration> ttl;                ///< virtual time to live
  std::optional<std::uint32_t> max_remote_contacts;  ///< instances contacted
  std::optional<std::uint64_t> max_bytes;          ///< storage/transfer bytes

  bool is_bounded() const {
    return ttl.has_value() || max_remote_contacts.has_value() ||
           max_bytes.has_value();
  }

  std::string to_string() const;
};

/// Convenience constructors for the common shapes.
LeaseTerms for_duration(transport::Duration ttl);
LeaseTerms for_contacts(std::uint32_t n);
LeaseTerms for_bytes(std::uint64_t n);
LeaseTerms unbounded();

enum class LeaseState : std::uint8_t {
  kActive,
  kExpired,   ///< TTL ran out
  kRevoked,   ///< instance reclaimed it early (last resort, §2.5)
  kReleased,  ///< holder finished with it
};

const char* to_string(LeaseState s);

/// What a lease was granted for. `id` names the holder in its own table.
enum class OwnerKind : std::uint8_t {
  kNone,         ///< nothing to reclaim when it ends
  kStoredTuple,  ///< a stored tuple (out, remote out); id: its TupleId
  kEval,         ///< a running eval (local, eval_at to self, remote); EvalId
  kServing,      ///< a served rd or in; id: the serving-table key
  kOp,           ///< a logical-space op, propagated or directed; its op id
};

struct Owner {
  OwnerKind kind = OwnerKind::kNone;
  std::uint64_t id = 0;
};

/// Names a lease record in its manager's slab: the slot, plus the slot's
/// generation when the lease was granted. A slot's generation moves on when
/// its lease ends, so an old handle reads as an ended lease and never
/// reaches a later one. A default handle names no lease.
struct LeaseHandle {
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  std::uint32_t slot = kNoSlot;
  std::uint32_t gen = 0;

  explicit operator bool() const { return slot != kNoSlot; }
};

/// A granted lease's value: its id, terms and grant time, the budgets
/// charged against it and its state. Only the manager ends it. A default
/// Lease is no lease: no id, unbounded, already ended.
class Lease {
 public:
  Lease() = default;
  Lease(LeaseId id, LeaseTerms terms, transport::Time granted_at);

  LeaseId id() const { return id_; }
  const LeaseTerms& terms() const { return terms_; }
  transport::Time granted_at() const { return granted_at_; }

  /// Absolute expiry instant, or transport::kNever without a TTL.
  transport::Time expiry_time() const;

  /// Replaces the TTL after a successful renewal.
  void set_ttl(transport::Duration ttl) { terms_.ttl = ttl; }

  LeaseState state() const { return state_; }
  bool active() const { return state_ == LeaseState::kActive; }

  /// Moves an active lease to the terminal state `s`; an ended lease stays
  /// as it ended.
  void finish(LeaseState s);

  // ---- Budget accounting -------------------------------------------------

  /// Charges one remote-instance contact. Returns false — and charges
  /// nothing — when the lease is not active or the contact budget is spent.
  bool charge_contact();

  /// Charges `n` bytes against the byte budget, same contract.
  bool charge_bytes(std::uint64_t n);

  /// True if at least one more remote contact may be charged.
  bool contacts_remaining() const;

  std::uint32_t contacts_used() const { return contacts_used_; }
  std::uint64_t bytes_used() const { return bytes_used_; }

 private:
  LeaseId id_ = kNoLease;
  LeaseTerms terms_;
  transport::Time granted_at_ = 0;
  LeaseState state_ = LeaseState::kReleased;
  std::uint32_t contacts_used_ = 0;
  std::uint64_t bytes_used_ = 0;
};

}  // namespace tiamat::lease
