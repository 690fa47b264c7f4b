#ifndef DBREPAIR_STORAGE_TABLE_H_
#define DBREPAIR_STORAGE_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
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
/// Rows live in fixed-size chunks of kChunkRows, each held by a
/// shared_ptr<const Chunk>, and the key index is one shared slot vector.
/// Copying a table (Clone, or the copy constructor) copies pointers only;
/// the first write to a chunk or to the slot vector that another table still
/// shares copies just that chunk or vector (copy-on-write). A repair that
/// updates a few hundred scattered rows of a large table therefore copies a
/// few hundred chunks, not the table.
///
/// Thread safety: a write decides whether to copy from
/// shared_ptr::use_count(), which is not a synchronising read. Tables that
/// share chunks may be read concurrently, but writing one of them while
/// another thread reads, copies or destroys a table sharing its chunks
/// needs outside synchronisation (e.g. joining that thread first).
///
/// The key index is a flat open-addressing table of row ids: key values live
/// only in the rows, where they never change (UpdateValue refuses key
/// attributes), so the slot vector stores no key.
class Table {
 public:
  /// Rows per chunk. A repair copies every chunk it updates, so small
  /// chunks copy less per scattered update; each chunk also costs one
  /// allocation and one pointer per kChunkRows rows.
  static constexpr size_t kChunkShift = 6;
  static constexpr size_t kChunkRows = size_t{1} << kChunkShift;

  /// Forward iteration over the rows in row order (range-for support).
  class RowIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Tuple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Tuple*;
    using reference = const Tuple&;

    RowIterator(const Table* table, size_t index)
        : table_(table), index_(index) {}
    const Tuple& operator*() const { return table_->row(index_); }
    const Tuple* operator->() const { return &table_->row(index_); }
    RowIterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const RowIterator& other) const {
      return index_ == other.index_;
    }
    bool operator!=(const RowIterator& other) const {
      return index_ != other.index_;
    }

   private:
    const Table* table_;
    size_t index_;
  };

  struct RowRange {
    const Table* table;
    RowIterator begin() const { return RowIterator(table, 0); }
    RowIterator end() const { return RowIterator(table, table->size()); }
  };

  explicit Table(const RelationSchema* schema) : schema_(schema) {}

  const RelationSchema& schema() const { return *schema_; }

  size_t size() const { return size_; }
  const Tuple& row(size_t index) const {
    return (*chunks_[index >> kChunkShift])[index & (kChunkRows - 1)];
  }
  RowRange rows() const { return RowRange{this}; }

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

  /// Copy of the rows and the primary-key index that shares every chunk
  /// and the slot vector with this table until one side writes to them:
  /// O(size() / kChunkRows), no row is copied, re-validated or re-hashed.
  /// Secondary (ordered) indexes are not carried over.
  Table Clone() const;

  /// Number of row chunks whose storage is shared with another table (a
  /// Clone or its source). Diagnostics and tests.
  size_t SharedChunks() const;

 private:
  using Chunk = std::vector<Tuple>;

  // The row at `index`, writable; copies its chunk first when shared.
  Tuple& MutableRow(size_t index);
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
  // Row `i` is (*chunks_[i >> kChunkShift])[i % kChunkRows]; every chunk but
  // the last holds exactly kChunkRows rows.
  std::vector<std::shared_ptr<const Chunk>> chunks_;
  size_t size_ = 0;
  // Primary-key slots: 0 when empty, else (tag << 32) | (row + 1), where the
  // tag is the high 32 bits of the key's hash. A key's home slot is the top
  // log2(capacity) bits of its hash, hence of its tag; collisions probe
  // linearly. The load factor stays at most 1/2. Never null.
  std::shared_ptr<const std::vector<uint64_t>> key_slots_ =
      std::make_shared<const std::vector<uint64_t>>();
  uint32_t key_bits_ = 0;  // log2(key_slots_.size())
  // Secondary B+-tree indexes by attribute position. Maintained per index
  // on insert, so the container's iteration order never affects anything.
  std::unordered_map<size_t, BTreeIndex> ordered_indexes_;
};

}  // namespace dbrepair

#endif  // DBREPAIR_STORAGE_TABLE_H_
