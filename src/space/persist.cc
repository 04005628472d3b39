#include "space/persist.h"

#include "space/handle.h"

namespace tiamat::space {

tuples::Bytes snapshot(const LocalTupleSpace& space, transport::Time now) {
  auto contents = space.snapshot_with_expiry();
  // Handle tuples are identity-bound (they name a node address); a
  // restarted instance publishes a fresh one, so they are not persisted.
  std::erase_if(contents,
                [](const auto& e) { return is_handle_tuple(e.first); });
  // 0 = unleased; otherwise remaining ttl + 1 (so a just-expiring tuple is
  // distinguishable and dropped on restore).
  auto remaining = [now](transport::Time expiry) -> std::uint64_t {
    if (expiry == transport::kNever) return 0;
    const transport::Duration left = expiry - now;
    return left > 0 ? static_cast<std::uint64_t>(left) + 1 : 1;
  };
  std::size_t size = tuples::varint_size(contents.size());
  for (const auto& [t, expiry] : contents) {
    size += tuples::varint_size(remaining(expiry)) + tuples::encoded_size(t);
  }
  tuples::Writer w(size);
  w.varint(contents.size());
  for (const auto& [t, expiry] : contents) {
    w.varint(remaining(expiry));
    tuples::encode(w, t);
  }
  return std::move(w).take();
}

std::optional<std::size_t> restore(LocalTupleSpace& space,
                                   const tuples::Bytes& image) {
  try {
    tuples::Reader r(image);
    const std::uint64_t count = r.varint();
    std::size_t restored = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t remaining = r.varint();
      tuples::Tuple t = tuples::decode_tuple(r);
      if (remaining == 1) continue;  // lease lapsed at snapshot time
      const transport::Time expiry =
          remaining == 0
              ? transport::kNever
              : space.now() + static_cast<transport::Duration>(remaining - 1);
      if (space.out(std::move(t), expiry) != tuples::kNoTuple) ++restored;
    }
    if (!r.done()) return std::nullopt;
    return restored;
  } catch (const tuples::DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace tiamat::space
