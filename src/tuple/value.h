// Typed field values for tuples.
//
// Linda tuples are ordered collections of typed data (paper §1). Tiamat's
// C++ incarnation supports the scalar types the paper's applications need
// (identifiers, URLs, fractal parameters, page bodies) plus a raw-bytes blob.

#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace tiamat::tuples {

/// Discriminates the alternatives of Value. Order matches the variant.
enum class Type : std::uint8_t {
  kInt = 0,
  kDouble = 1,
  kBool = 2,
  kString = 3,
  kBlob = 4,
};

const char* type_name(Type t);

using Blob = std::vector<std::uint8_t>;

/// A single typed field. Regular value type: copyable, comparable, hashable.
class Value {
 public:
  Value() : v_(std::int64_t{0}) {}
  Value(std::int64_t v) : v_(v) {}          // NOLINT: implicit by design —
  Value(int v) : v_(std::int64_t{v}) {}     // tuple literals read naturally
  Value(double v) : v_(v) {}                // NOLINT
  Value(bool v) : v_(v) {}                  // NOLINT
  Value(std::string v) : v_(std::move(v)) {}  // NOLINT
  Value(const char* v) : v_(std::string(v)) {}  // NOLINT
  Value(Blob v) : v_(std::move(v)) {}       // NOLINT

  Type type() const { return static_cast<Type>(v_.index()); }

  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_string() const { return type() == Type::kString; }
  bool is_blob() const { return type() == Type::kBlob; }

  /// Accessors throw std::bad_variant_access on type mismatch.
  std::int64_t as_int() const { return std::get<std::int64_t>(v_); }
  double as_double() const { return std::get<double>(v_); }
  bool as_bool() const { return std::get<bool>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Blob& as_blob() const { return std::get<Blob>(v_); }

  /// The held T (one of the variant's alternatives), or nullptr when the
  /// value holds another type.
  template <typename T>
  const T* get_if() const {
    return std::get_if<T>(&v_);
  }

  /// Approximate in-memory/wire footprint in bytes; the lease subsystem
  /// charges storage budgets with this.
  std::size_t footprint() const;

  std::string to_string() const;

  friend bool operator==(const Value& a, const Value& b) { return a.v_ == b.v_; }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  /// Total order (by type index, then value); used for deterministic sorts.
  friend bool operator<(const Value& a, const Value& b) { return a.v_ < b.v_; }

  std::size_t hash() const;

 private:
  std::variant<std::int64_t, double, bool, std::string, Blob> v_;
};

/// Hash functor for unordered containers keyed by Value (the matching
/// engine's first-field buckets).
struct ValueHash {
  std::size_t operator()(const Value& v) const { return v.hash(); }
};

}  // namespace tiamat::tuples
