// Binary wire codec for values, tuples and patterns.
//
// Everything that crosses the simulated network is really encoded and
// decoded through this codec (not passed by pointer), so byte counts in the
// benches are honest and corruption/compatibility bugs are caught by tests.
//
// Format: little-endian fixed-width scalars, LEB128 varints for lengths,
// one tag byte per value/field. The byte order holds by construction on any
// host: a scalar is split into bytes and rebuilt from them with shifts,
// never copied in host order.
//
// One exactly-sized buffer per encode: each encoder has an encoded_size
// beside it, and encode_tuple / encode_pattern (like net::encode_message)
// size their Writer to it up front, so the buffer is allocated once and
// never regrown. Each scalar is appended, or bounds-checked and read, in one
// step.

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "tuple/pattern.h"
#include "tuple/tuple.h"
#include "tuple/value.h"

namespace tiamat::tuples {

using Bytes = std::vector<std::uint8_t>;

/// Thrown by Reader / decode_* on malformed input.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Bytes Writer::varint(v) appends: one per started group of 7 bits.
constexpr std::size_t varint_size(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/// The longest varint, UINT64_MAX's: nine 7-bit groups and bit 63.
inline constexpr std::size_t kMaxVarintBytes = varint_size(UINT64_MAX);

/// Append-only byte sink: a buffer and a cursor into it. Sized up front to
/// what will be written, it allocates once, and each append is a bounds
/// check and a store; only an unsized Writer grows.
class Writer {
 public:
  Writer() = default;
  /// Sizes the buffer to `capacity` bytes: an encoder that passes the
  /// encoded_size of what it writes allocates once and never regrows.
  explicit Writer(std::size_t capacity) : out_(capacity) {}

  void u8(std::uint8_t v) { *room(1) = v; }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void varint(std::uint64_t v) {
    std::uint8_t buf[kMaxVarintBytes] = {};
    std::size_t n = 0;
    for (; v >= 0x80; v >>= 7) buf[n++] = static_cast<std::uint8_t>(v) | 0x80;
    buf[n++] = static_cast<std::uint8_t>(v);
    bytes(buf, n);
  }
  void bytes(const std::uint8_t* data, std::size_t n) {
    std::copy_n(data, n, room(n));
  }
  void str(const std::string& s);  ///< varint length + raw bytes
  void blob(const Blob& b);        ///< varint length + raw bytes

  /// The bytes written so far.
  const Bytes& data() & {
    out_.resize(pos_);
    return out_;
  }
  Bytes take() && {
    out_.resize(pos_);
    return std::move(out_);
  }
  std::size_t size() const { return pos_; }

 private:
  /// Appends v's bytes, least significant first.
  template <typename U>
  void le(U v) {
    std::uint8_t buf[sizeof(U)] = {};
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    bytes(buf, sizeof(U));
  }

  /// Where the next `n` bytes go; moves the cursor past them.
  std::uint8_t* room(std::size_t n) {
    if (n > out_.size() - pos_) [[unlikely]] grow(n);
    std::uint8_t* at = out_.data() + pos_;
    pos_ += n;
    return at;
  }
  [[gnu::cold]] void grow(std::size_t n);

  Bytes out_;
  std::size_t pos_ = 0;
};

/// Bounds-checked byte source.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t n) : data_(data), end_(data + n) {}
  explicit Reader(const Bytes& b) : Reader(b.data(), b.size()) {}

  std::uint8_t u8() {
    need(1);
    return *data_++;
  }
  std::uint16_t u16() { return le<std::uint16_t>(); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// At most kMaxVarintBytes bytes, the last of which may carry bit 63
  /// only: any encoding Writer::varint produces, and nothing that overflows.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      const std::uint8_t b = u8();
      if (shift == 63 && b > 1) fail("varint overflow");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
  }
  std::string str();
  Blob blob();

  bool done() const { return data_ == end_; }
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - data_); }

 private:
  [[noreturn]] static void fail(const char* what);
  void need(std::size_t n) const {
    if (remaining() < n) fail("truncated input");
  }
  /// Reads sizeof(U) bytes, least significant first, after one bounds check.
  template <typename U>
  U le() {
    need(sizeof(U));
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<std::uint64_t>(data_[i]) << (8 * i);
    }
    data_ += sizeof(U);
    return static_cast<U>(v);
  }

  const std::uint8_t* data_;
  const std::uint8_t* end_;
};

/// encoded_size(x) is the number of bytes encode(w, x) appends.
std::size_t encoded_size(const Value& v);
std::size_t encoded_size(const Tuple& t);
std::size_t encoded_size(const Field& f);
std::size_t encoded_size(const Pattern& p);

void encode(Writer& w, const Value& v);
void encode(Writer& w, const Tuple& t);
void encode(Writer& w, const Field& f);
void encode(Writer& w, const Pattern& p);

Value decode_value(Reader& r);
Tuple decode_tuple(Reader& r);
Field decode_field(Reader& r);
Pattern decode_pattern(Reader& r);

Bytes encode_tuple(const Tuple& t);
Bytes encode_pattern(const Pattern& p);
std::optional<Tuple> try_decode_tuple(const Bytes& b);
std::optional<Pattern> try_decode_pattern(const Bytes& b);

}  // namespace tiamat::tuples
