#include "tuple/codec.h"

namespace tiamat::tuples {

void Writer::grow(std::size_t n) {
  out_.resize(std::max(pos_ + n, 2 * out_.size()));
}

void Writer::str(const std::string& s) {
  varint(s.size());
  bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void Writer::blob(const Blob& b) {
  varint(b.size());
  bytes(b.data(), b.size());
}

void Reader::fail(const char* what) { throw DecodeError(what); }

std::string Reader::str() {
  std::uint64_t n = varint();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_), n);
  data_ += n;
  return s;
}

Blob Reader::blob() {
  std::uint64_t n = varint();
  need(n);
  Blob b(data_, data_ + n);
  data_ += n;
  return b;
}

namespace {
std::size_t length_prefixed_size(std::size_t n) { return varint_size(n) + n; }
}  // namespace

std::size_t encoded_size(const Value& v) {
  switch (v.type()) {
    case Type::kInt:
    case Type::kDouble:
      return 1 + 8;
    case Type::kBool:
      return 1 + 1;
    case Type::kString:
      return 1 + length_prefixed_size(v.as_string().size());
    case Type::kBlob:
      return 1 + length_prefixed_size(v.as_blob().size());
  }
  return 1;
}

void encode(Writer& w, const Value& v) {
  w.u8(static_cast<std::uint8_t>(v.type()));
  switch (v.type()) {
    case Type::kInt:
      w.i64(v.as_int());
      break;
    case Type::kDouble:
      w.f64(v.as_double());
      break;
    case Type::kBool:
      w.u8(v.as_bool() ? 1 : 0);
      break;
    case Type::kString:
      w.str(v.as_string());
      break;
    case Type::kBlob:
      w.blob(v.as_blob());
      break;
  }
}

Value decode_value(Reader& r) {
  std::uint8_t tag = r.u8();
  switch (static_cast<Type>(tag)) {
    case Type::kInt:
      return Value(r.i64());
    case Type::kDouble:
      return Value(r.f64());
    case Type::kBool:
      return Value(r.u8() != 0);
    case Type::kString:
      return Value(r.str());
    case Type::kBlob:
      return Value(r.blob());
  }
  throw DecodeError("bad value tag");
}

std::size_t encoded_size(const Tuple& t) {
  std::size_t n = varint_size(t.arity());
  for (const Value& v : t) n += encoded_size(v);
  return n;
}

void encode(Writer& w, const Tuple& t) {
  w.varint(t.arity());
  for (const Value& v : t) encode(w, v);
}

Tuple decode_tuple(Reader& r) {
  std::uint64_t n = r.varint();
  if (n > r.remaining()) throw DecodeError("tuple arity exceeds input");
  std::vector<Value> fields;
  fields.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) fields.push_back(decode_value(r));
  return Tuple(std::move(fields));
}

std::size_t encoded_size(const Field& f) {
  switch (f.kind()) {
    case Field::Kind::kActual:
      return 1 + encoded_size(f.actual());
    case Field::Kind::kFormal:
      return 1 + 1;
    case Field::Kind::kWildcard:
      return 1;
    case Field::Kind::kRange:
      return 1 + 8 + 8;
    case Field::Kind::kPrefix:
      return 1 + length_prefixed_size(f.prefix_str().size());
  }
  return 1;
}

void encode(Writer& w, const Field& f) {
  w.u8(static_cast<std::uint8_t>(f.kind()));
  switch (f.kind()) {
    case Field::Kind::kActual:
      encode(w, f.actual());
      break;
    case Field::Kind::kFormal:
      w.u8(static_cast<std::uint8_t>(f.formal_type()));
      break;
    case Field::Kind::kWildcard:
      break;
    case Field::Kind::kRange:
      w.f64(f.range_lo());
      w.f64(f.range_hi());
      break;
    case Field::Kind::kPrefix:
      w.str(f.prefix_str());
      break;
  }
}

Field decode_field(Reader& r) {
  std::uint8_t tag = r.u8();
  switch (static_cast<Field::Kind>(tag)) {
    case Field::Kind::kActual:
      return Field(decode_value(r));
    case Field::Kind::kFormal: {
      std::uint8_t t = r.u8();
      if (t > static_cast<std::uint8_t>(Type::kBlob)) {
        throw DecodeError("bad formal type");
      }
      return Field::formal(static_cast<Type>(t));
    }
    case Field::Kind::kWildcard:
      return Field::wildcard();
    case Field::Kind::kRange: {
      double lo = r.f64();
      double hi = r.f64();
      return Field::range(lo, hi);
    }
    case Field::Kind::kPrefix:
      return Field::prefix(r.str());
  }
  throw DecodeError("bad field tag");
}

std::size_t encoded_size(const Pattern& p) {
  std::size_t n = varint_size(p.arity());
  for (const Field& f : p.fields()) n += encoded_size(f);
  return n;
}

void encode(Writer& w, const Pattern& p) {
  w.varint(p.arity());
  for (const Field& f : p.fields()) encode(w, f);
}

Pattern decode_pattern(Reader& r) {
  std::uint64_t n = r.varint();
  if (n > r.remaining()) throw DecodeError("pattern arity exceeds input");
  std::vector<Field> fields;
  fields.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) fields.push_back(decode_field(r));
  return Pattern(std::move(fields));
}

Bytes encode_tuple(const Tuple& t) {
  Writer w(encoded_size(t));
  encode(w, t);
  return std::move(w).take();
}

Bytes encode_pattern(const Pattern& p) {
  Writer w(encoded_size(p));
  encode(w, p);
  return std::move(w).take();
}

std::optional<Tuple> try_decode_tuple(const Bytes& b) {
  try {
    Reader r(b);
    Tuple t = decode_tuple(r);
    if (!r.done()) return std::nullopt;
    return t;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

std::optional<Pattern> try_decode_pattern(const Bytes& b) {
  try {
    Reader r(b);
    Pattern p = decode_pattern(r);
    if (!r.done()) return std::nullopt;
    return p;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace tiamat::tuples
