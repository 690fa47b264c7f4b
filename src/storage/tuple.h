#ifndef DBREPAIR_STORAGE_TUPLE_H_
#define DBREPAIR_STORAGE_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/value.h"

namespace dbrepair {

/// A database tuple: one value per attribute of its relation schema.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t arity() const { return values_.size(); }
  const Value& value(size_t index) const { return values_[index]; }
  void set_value(size_t index, Value v) { values_[index] = std::move(v); }
  const std::vector<Value>& values() const { return values_; }

  bool operator==(const Tuple& other) const {
    return values_ == other.values_;
  }

  /// "(v1, v2, ...)" for dumps and test diagnostics.
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

/// Stable identifier of a tuple inside a Database: relation index in the
/// schema catalog plus row index inside that relation's table. Violation
/// sets, mono-local fixes, and set-cover columns all refer to tuples through
/// TupleRef so they stay valid while a repair is being assembled.
struct TupleRef {
  uint32_t relation = 0;
  uint32_t row = 0;

  bool operator==(const TupleRef& other) const {
    return relation == other.relation && row == other.row;
  }
  bool operator<(const TupleRef& other) const {
    if (relation != other.relation) return relation < other.relation;
    return row < other.row;
  }

  /// Packs into one 64-bit key for hashing.
  uint64_t Packed() const {
    return (static_cast<uint64_t>(relation) << 32) | row;
  }

  /// Inverse of Packed().
  static TupleRef FromPacked(uint64_t packed) {
    return TupleRef{static_cast<uint32_t>(packed >> 32),
                    static_cast<uint32_t>(packed)};
  }
};

struct TupleRefHash {
  size_t operator()(const TupleRef& ref) const {
    // Fibonacci hashing of the packed id.
    return static_cast<size_t>(ref.Packed() * 0x9e3779b97f4a7c15ULL);
  }
};

}  // namespace dbrepair

#endif  // DBREPAIR_STORAGE_TUPLE_H_
