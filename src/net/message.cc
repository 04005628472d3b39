#include "net/message.h"

#include <sstream>

namespace tiamat::net {

using tuples::Bytes;
using tuples::Reader;
using tuples::Writer;

namespace {
// Presence bits for the optional payloads.
constexpr std::uint8_t kHasTuple = 1 << 0;
constexpr std::uint8_t kHasPattern = 1 << 1;
// type (u16), op_id (u64), origin (u32) and the presence flags (u8).
constexpr std::size_t kFixedBytes = 2 + 8 + 4 + 1;
}  // namespace

std::size_t encoded_size(const Message& m) {
  std::size_t n = kFixedBytes + tuples::varint_size(m.headers.size());
  for (const auto& v : m.headers) n += tuples::encoded_size(v);
  if (m.tuple) n += tuples::encoded_size(*m.tuple);
  if (m.pattern) n += tuples::encoded_size(*m.pattern);
  return n;
}

Bytes encode_message(const Message& m) {
  Writer w(encoded_size(m));
  w.u16(m.type);
  w.u64(m.op_id);
  w.u32(m.origin);
  std::uint8_t flags = 0;
  if (m.tuple) flags |= kHasTuple;
  if (m.pattern) flags |= kHasPattern;
  w.u8(flags);
  w.varint(m.headers.size());
  for (const auto& v : m.headers) tuples::encode(w, v);
  if (m.tuple) tuples::encode(w, *m.tuple);
  if (m.pattern) tuples::encode(w, *m.pattern);
  return std::move(w).take();
}

std::optional<Message> decode_message(const Bytes& b) {
  try {
    Reader r(b);
    Message m;
    m.type = r.u16();
    m.op_id = r.u64();
    m.origin = r.u32();
    std::uint8_t flags = r.u8();
    std::uint64_t n = r.varint();
    if (n > r.remaining()) return std::nullopt;
    m.headers.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      m.headers.push_back(tuples::decode_value(r));
    }
    if (flags & kHasTuple) m.tuple = tuples::decode_tuple(r);
    if (flags & kHasPattern) m.pattern = tuples::decode_pattern(r);
    if (!r.done()) return std::nullopt;
    return m;
  } catch (const tuples::DecodeError&) {
    return std::nullopt;
  }
}

std::string Message::to_string() const {
  std::ostringstream os;
  os << "msg{type=" << type << " op=" << op_id << " origin=" << origin;
  if (!headers.empty()) {
    os << " h=[";
    for (std::size_t i = 0; i < headers.size(); ++i) {
      if (i) os << ",";
      os << headers[i].to_string();
    }
    os << "]";
  }
  if (tuple) os << " tuple=" << tuple->to_string();
  if (pattern) os << " pat=" << pattern->to_string();
  os << "}";
  return os.str();
}

}  // namespace tiamat::net
