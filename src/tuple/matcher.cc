#include "tuple/matcher.h"

#include <algorithm>
#include <cstring>

namespace tiamat::tuples {

namespace {

// splitmix64's finaliser: every input bit reaches the top six.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Length plus the first and last 8 bytes (zero-padded when shorter).
std::uint64_t bytes_digest(const void* data, std::size_t n) {
  std::uint64_t head = 0;
  std::uint64_t tail = 0;
  if (n != 0) {
    std::memcpy(&head, data, std::min<std::size_t>(n, 8));
    if (n > 8) {
      std::memcpy(&tail, static_cast<const char*>(data) + n - 8, 8);
    }
  }
  return head ^ mix64(tail + n);
}

}  // namespace

std::uint64_t field_bit(std::size_t pos, const Value& v) {
  std::uint64_t x;
  if (v.is_string()) {
    x = bytes_digest(v.as_string().data(), v.as_string().size());
  } else if (v.is_blob()) {
    x = bytes_digest(v.as_blob().data(), v.as_blob().size());
  } else {
    // Equal scalars hash equal, -0.0 and +0.0 included: the first-field
    // buckets rely on the same rule.
    x = v.hash();
  }
  const std::uint64_t salt = (pos << 3) | static_cast<std::uint64_t>(v.type());
  return std::uint64_t{1} << (mix64(x + 0x9e3779b97f4a7c15ULL * (salt + 1)) >> 58);
}

std::uint64_t rest_signature(const Tuple& t) {
  std::uint64_t sig = 0;
  for (std::size_t i = 1; i < t.arity(); ++i) sig |= field_bit(i, t[i]);
  return sig;
}

CompiledPattern::CompiledPattern(Pattern p) : pattern_(std::move(p)) {
  const auto& fields = pattern_.fields();
  checks_.reserve(fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const Field& f = fields[i];
    if (f.kind() != Field::Kind::kWildcard) {
      checks_.push_back(static_cast<std::uint32_t>(i));
    }
    if (i > 0 && f.kind() == Field::Kind::kActual) {
      rest_mask_ |= field_bit(i, f.actual());
    }
  }
  keyed_ = !fields.empty() && fields[0].kind() == Field::Kind::kActual;
}

}  // namespace tiamat::tuples
