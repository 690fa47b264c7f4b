#ifndef DBREPAIR_STORAGE_TABLE_H_
#define DBREPAIR_STORAGE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "storage/btree_index.h"
#include "storage/tuple.h"

namespace dbrepair {

/// An in-memory row store for one relation, with a hash index on the
/// primary key. Rows are append-only and keep stable indices so TupleRefs
/// never dangle; repairs mutate attribute values in place on a copied
/// Database rather than deleting rows.
///
/// The key index is a flat open-addressing table of row ids: key values live
/// only in `rows_`, where they never change (UpdateValue refuses key
/// attributes), so copying a table copies two flat vectors and no key.
class Table {
 public:
  explicit Table(const RelationSchema* schema) : schema_(schema) {}

  const RelationSchema& schema() const { return *schema_; }

  size_t size() const { return rows_.size(); }
  const Tuple& row(size_t index) const { return rows_[index]; }
  const std::vector<Tuple>& rows() const { return rows_; }

  /// Appends `tuple`, checking arity, per-column types, and primary-key
  /// uniqueness. Returns the new row index.
  Result<size_t> Insert(Tuple tuple);

  /// Row index of the tuple with the given key values, or error. Keys match
  /// by Value::operator== (an INT 3 matches a DOUBLE 3.0; NULL matches NULL).
  Result<size_t> LookupByKey(const std::vector<Value>& key) const;

  /// Updates one attribute of one row. Key attributes cannot be updated
  /// (repairs never change keys; Definition 2.2 keeps val(K_R) fixed).
  /// An ordered index on the updated attribute, if any, is dropped (it
  /// would be stale); recreate it after a batch of updates.
  Status UpdateValue(size_t row, size_t attribute, Value v);

  /// Builds (or rebuilds) a B+-tree secondary index over `attribute`.
  /// Subsequent inserts maintain it; UpdateValue on the attribute drops it.
  Status CreateOrderedIndex(size_t attribute);

  /// The ordered index on `attribute`, or nullptr if none exists.
  const BTreeIndex* FindOrderedIndex(size_t attribute) const;

  /// Copy of the rows and the primary-key index, verbatim: no row is
  /// re-validated or re-hashed. Secondary (ordered) indexes are not carried
  /// over.
  Table Clone() const;

 private:
  // Mixed hash of a key (Value::Hash folded over the key positions), so it
  // honours Value::operator==.
  uint64_t KeyHash(const Tuple& tuple) const;
  uint64_t KeyHash(const std::vector<Value>& key) const;
  // Index of the slot holding the row `same_key(row)` accepts, or of the
  // empty slot that ends the probe sequence of `hash`. Requires a non-empty
  // slot vector.
  template <class SameKey>
  size_t ProbeKey(uint64_t hash, SameKey same_key) const;
  Status CheckTypes(const Tuple& tuple) const;
  // Doubles the slot vector (or allocates the first one) and re-places
  // every row id from its stored tag; no key is re-hashed.
  void GrowKeyIndex();

  const RelationSchema* schema_;
  std::vector<Tuple> rows_;
  // Primary-key slots: 0 when empty, else (tag << 32) | (row + 1), where the
  // tag is the high 32 bits of the key's hash. A key's home slot is the top
  // log2(capacity) bits of its hash, hence of its tag; collisions probe
  // linearly. The load factor stays at most 1/2.
  std::vector<uint64_t> key_slots_;
  uint32_t key_bits_ = 0;  // log2(key_slots_.size())
  // Secondary B+-tree indexes by attribute position. Maintained per index
  // on insert, so the container's iteration order never affects anything.
  std::unordered_map<size_t, BTreeIndex> ordered_indexes_;
};

}  // namespace dbrepair

#endif  // DBREPAIR_STORAGE_TABLE_H_
