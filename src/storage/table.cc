#include "storage/table.h"

#include <algorithm>

namespace dbrepair {

namespace {

// Slot vector size of the first insert (2^kInitialKeyBits).
constexpr uint32_t kInitialKeyBits = 4;
// Row ids are stored as uint32 row + 1 and the home slot comes from the
// 32-bit tag, so a table holds at most 2^31 rows (2^32 slots at load 1/2).
constexpr size_t kMaxRows = size_t{1} << 31;
constexpr uint64_t kRowMask = 0xffffffffULL;

// The MurmurHash3 finaliser. Value::Hash of an int is the int itself, so
// strided keys would otherwise share their top bits, which pick the slot.
uint64_t MixKeyHash(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

constexpr uint64_t kKeyHashSeed = 0x51ed270b;
constexpr uint64_t kKeyHashPrime = 1099511628211ULL;

// The object `*shared` points to, writable, after giving `*shared` its own
// copy when another owner still holds it. Every pointee was created
// non-const (make_shared<T>), so casting the const away is well-defined.
template <class T>
T& Unshare(std::shared_ptr<const T>* shared) {
  if (shared->use_count() != 1) *shared = std::make_shared<T>(**shared);
  return const_cast<T&>(**shared);
}

}  // namespace

uint64_t Table::KeyHash(const Tuple& tuple) const {
  uint64_t h = kKeyHashSeed;
  for (const size_t pos : schema_->key_positions()) {
    h = h * kKeyHashPrime + tuple.value(pos).Hash();
  }
  return MixKeyHash(h);
}

uint64_t Table::KeyHash(const std::vector<Value>& key) const {
  uint64_t h = kKeyHashSeed;
  for (const Value& v : key) h = h * kKeyHashPrime + v.Hash();
  return MixKeyHash(h);
}

template <class SameKey>
size_t Table::ProbeKey(uint64_t hash, SameKey same_key) const {
  const uint64_t tag = hash >> 32;
  const std::vector<uint64_t>& slots = *key_slots_;
  const size_t mask = slots.size() - 1;
  for (size_t i = hash >> (64 - key_bits_);; i = (i + 1) & mask) {
    const uint64_t slot = slots[i];
    if (slot == 0) return i;
    if ((slot >> 32) == tag && same_key(row((slot & kRowMask) - 1))) {
      return i;
    }
  }
}

void Table::GrowKeyIndex() {
  const uint32_t bits = key_bits_ == 0 ? kInitialKeyBits : key_bits_ + 1;
  auto slots = std::make_shared<std::vector<uint64_t>>(size_t{1} << bits, 0);
  const size_t mask = slots->size() - 1;
  for (const uint64_t slot : *key_slots_) {
    if (slot == 0) continue;
    size_t i = (slot >> 32) >> (32 - bits);
    while ((*slots)[i] != 0) i = (i + 1) & mask;
    (*slots)[i] = slot;
  }
  key_slots_ = std::move(slots);
  key_bits_ = bits;
}

Status Table::CheckTypes(const Tuple& tuple) const {
  for (size_t i = 0; i < tuple.arity(); ++i) {
    const Value& v = tuple.value(i);
    if (v.is_null()) continue;  // NULL is allowed in any column.
    const Type want = schema_->attribute(i).type;
    const bool ok = (want == Type::kInt64 && v.is_int()) ||
                    (want == Type::kDouble && (v.is_double() || v.is_int())) ||
                    (want == Type::kString && v.is_string());
    if (!ok) {
      return Status::InvalidArgument(
          "type mismatch in '" + schema_->name() + "." +
          schema_->attribute(i).name + "': expected " + TypeName(want) +
          ", got " + v.ToString());
    }
  }
  return Status::OK();
}

Result<size_t> Table::Insert(Tuple tuple) {
  if (tuple.arity() != schema_->arity()) {
    return Status::InvalidArgument(
        "arity mismatch inserting into '" + schema_->name() + "': expected " +
        std::to_string(schema_->arity()) + " values, got " +
        std::to_string(tuple.arity()));
  }
  DBREPAIR_RETURN_IF_ERROR(CheckTypes(tuple));
  if (size_ >= kMaxRows) {
    return Status::OutOfRange("table '" + schema_->name() + "' is full");
  }
  if ((size_ + 1) * 2 > key_slots_->size()) GrowKeyIndex();
  const uint64_t hash = KeyHash(tuple);
  const auto& kp = schema_->key_positions();
  const size_t slot = ProbeKey(hash, [&](const Tuple& other) {
    for (const size_t pos : kp) {
      if (other.value(pos) != tuple.value(pos)) return false;
    }
    return true;
  });
  if ((*key_slots_)[slot] != 0) {
    return Status::KeyViolation("duplicate primary key in '" +
                                schema_->name() + "': " + tuple.ToString());
  }
  const size_t row = size_;
  if ((row & (kChunkRows - 1)) == 0) {
    auto chunk = std::make_shared<Chunk>();
    chunk->reserve(kChunkRows);
    chunks_.push_back(std::move(chunk));
  }
  Unshare(&chunks_.back()).push_back(std::move(tuple));
  ++size_;
  Unshare(&key_slots_)[slot] = ((hash >> 32) << 32) | (row + 1);
  for (auto& [attribute, index] : ordered_indexes_) {
    index.Insert(this->row(row).value(attribute), static_cast<uint32_t>(row));
  }
  return row;
}

Result<size_t> Table::LookupByKey(const std::vector<Value>& key) const {
  const auto& kp = schema_->key_positions();
  if (size_ > 0 && key.size() == kp.size()) {
    const size_t i = ProbeKey(KeyHash(key), [&](const Tuple& row) {
      for (size_t k = 0; k < kp.size(); ++k) {
        if (row.value(kp[k]) != key[k]) return false;
      }
      return true;
    });
    const uint64_t slot = (*key_slots_)[i];
    if (slot != 0) return static_cast<size_t>((slot & kRowMask) - 1);
  }
  return Status::NotFound("no tuple with the given key in '" +
                          schema_->name() + "'");
}

Status Table::UpdateValue(size_t row, size_t attribute, Value v) {
  if (row >= size_) {
    return Status::OutOfRange("row index out of range in '" +
                              schema_->name() + "'");
  }
  if (attribute >= schema_->arity()) {
    return Status::OutOfRange("attribute index out of range in '" +
                              schema_->name() + "'");
  }
  const auto& kp = schema_->key_positions();
  if (std::find(kp.begin(), kp.end(), attribute) != kp.end()) {
    return Status::InvalidArgument(
        "cannot update key attribute '" + schema_->name() + "." +
        schema_->attribute(attribute).name + "'");
  }
  MutableRow(row).set_value(attribute, std::move(v));
  ordered_indexes_.erase(attribute);  // now stale; owner rebuilds if needed
  return Status::OK();
}

Status Table::CreateOrderedIndex(size_t attribute) {
  if (attribute >= schema_->arity()) {
    return Status::OutOfRange("attribute index out of range in '" +
                              schema_->name() + "'");
  }
  std::vector<std::pair<Value, uint32_t>> entries;
  entries.reserve(size_);
  for (uint32_t r = 0; r < size_; ++r) {
    entries.emplace_back(row(r).value(attribute), r);
  }
  ordered_indexes_.insert_or_assign(attribute,
                                    BTreeIndex::BulkLoad(std::move(entries)));
  return Status::OK();
}

const BTreeIndex* Table::FindOrderedIndex(size_t attribute) const {
  const auto it = ordered_indexes_.find(attribute);
  return it == ordered_indexes_.end() ? nullptr : &it->second;
}

Tuple& Table::MutableRow(size_t index) {
  return Unshare(&chunks_[index >> kChunkShift])[index & (kChunkRows - 1)];
}

Table Table::Clone() const {
  Table copy(schema_);
  copy.chunks_ = chunks_;
  copy.size_ = size_;
  copy.key_slots_ = key_slots_;
  copy.key_bits_ = key_bits_;
  return copy;
}

size_t Table::SharedChunks() const {
  size_t shared = 0;
  for (const auto& chunk : chunks_) shared += chunk.use_count() > 1 ? 1 : 0;
  return shared;
}

}  // namespace dbrepair
