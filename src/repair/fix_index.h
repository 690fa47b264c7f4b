#ifndef DBREPAIR_REPAIR_FIX_INDEX_H_
#define DBREPAIR_REPAIR_FIX_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dbrepair {

/// Identity of a candidate mono-local fix: (tuple, attribute, new value).
/// MLF(t, ic1, A) and MLF(t, ic2, A) may coincide and must become one
/// set-cover column, so candidates are deduplicated on this key.
struct FixKey {
  uint64_t tuple_packed = 0;  ///< TupleRef::Packed()
  int64_t value = 0;
  uint32_t attribute = 0;

  bool operator==(const FixKey& o) const {
    return tuple_packed == o.tuple_packed && attribute == o.attribute &&
           value == o.value;
  }
};

struct FixKeyHash {
  uint64_t operator()(const FixKey& k) const {
    uint64_t h = k.tuple_packed * 0x9e3779b97f4a7c15ULL;
    h ^= (static_cast<uint64_t>(k.value) ^
          (static_cast<uint64_t>(k.attribute) << 48)) *
         0xc2b2ae3d27d4eb4fULL;
    // MurmurHash3 finaliser: every input bit reaches the low (slot) bits.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  }
};

/// A flat open-addressing map from a key to a uint32 id: keys live in the
/// slots (no per-entry node or heap allocation), linear probing, capacity a
/// power of two that doubles past load 3/4 (a session's map holds one entry
/// per set-cover column for its whole life, so memory counts as much as
/// probe length). `kNone` marks an empty slot, so it is not a storable id.
/// `Hash` must mix well into the low bits.
template <class Key, class Hash>
class FlatIdMap {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Sizes the table for `n` entries without further growth.
  void Reserve(size_t n) {
    if (!Fits(n)) Rehash(n);
  }

  /// The id stored for `key`, inserting `id` first when the key is absent;
  /// `.second` is true iff this call inserted.
  std::pair<uint32_t, bool> Insert(const Key& key, uint32_t id) {
    if (!Fits(size_ + 1)) Rehash(size_ + 1);
    for (size_t i = Hash{}(key) & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.id == kNone) {
        slot.key = key;
        slot.id = id;
        ++size_;
        return {id, true};
      }
      if (slot.key == key) return {slot.id, false};
    }
  }

  /// The id stored for `key`, or kNone.
  uint32_t Find(const Key& key) const {
    if (slots_.empty()) return kNone;
    for (size_t i = Hash{}(key) & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.id == kNone || slot.key == key) return slot.id;
    }
  }

 private:
  struct Slot {
    Key key{};
    uint32_t id = kNone;
  };

  bool Fits(size_t entries) const { return 4 * entries <= 3 * slots_.size(); }

  // Re-places every entry into the smallest table that fits `entries`.
  void Rehash(size_t entries) {
    size_t capacity = 16;
    while (3 * capacity < 4 * entries) capacity *= 2;
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.id != kNone) Insert(slot.key, slot.id);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Candidate-fix key -> set id (the build's dedupe/merge map and a repair
/// session's live index of its set-cover columns).
using FixIdMap = FlatIdMap<FixKey, FixKeyHash>;

}  // namespace dbrepair

#endif  // DBREPAIR_REPAIR_FIX_INDEX_H_
