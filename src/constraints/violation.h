#ifndef DBREPAIR_CONSTRAINTS_VIOLATION_H_
#define DBREPAIR_CONSTRAINTS_VIOLATION_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "storage/database.h"
#include "storage/tuple.h"

namespace dbrepair {

/// A violation set (Definition 2.4): a minimal set of tuples that jointly
/// violate one constraint. `tuples` is sorted and duplicate-free, so equal
/// sets compare equal structurally.
struct ViolationSet {
  uint32_t ic_index = 0;
  std::vector<TupleRef> tuples;

  bool operator==(const ViolationSet& other) const {
    return ic_index == other.ic_index && tuples == other.tuples;
  }

  bool Contains(TupleRef ref) const;

  /// "ic2: {R0[3], R1[7]}" (relation/row indices) for diagnostics.
  std::string ToString() const;
};

/// Sorts violation sets by (ic_index, tuples), the order every enumerator
/// emits. A no-op pass over input that is already in that order.
void SortViolationSets(std::vector<ViolationSet>* sets);

/// The dedupe buffer of one constraint's violation enumeration: one
/// fixed-width record per satisfying assignment, `width` (the constraint's
/// atom count) packed tuple ids, sorted ascending, duplicates removed and
/// the tail zero-padded. Within a record every id after the first is larger
/// than the first, so a padding zero can never be mistaken for a tuple and
/// records compare lexicographically in exactly the order of their tuple
/// vectors.
///
/// Appending is a copy into one flat vector; Compact() sorts and dedupes it
/// into a sorted run. Shards compact their own runs, and MergeRuns combines
/// sorted runs without re-sorting. AppendMinimal then applies Definition
/// 2.4's minimality filter by binary search in the run and builds each
/// surviving ViolationSet once, in final order.
class ViolationBuffer {
 public:
  /// `max_sets` caps the number of *distinct* records, non-minimal ones
  /// included: Append compacts before it reports the cap as exceeded.
  ViolationBuffer(uint32_t ic_index, size_t width, size_t max_sets);

  /// Appends the record of one assignment: `width` tuples, in any order,
  /// repeats allowed. False when the distinct records exceed `max_sets`.
  bool Append(const TupleRef* tuples);

  /// Sorts and dedupes the records into one sorted run. False when the
  /// distinct records exceed `max_sets`.
  bool Compact();

  /// Merges compacted runs of the same constraint into one compacted run,
  /// dropping records present in several runs. The caller's Compact()
  /// then checks the merged run against the cap.
  static ViolationBuffer MergeRuns(std::vector<ViolationBuffer>* runs);

  /// Appends the inclusion-minimal sets (subsets checked for up to 16
  /// tuples) of this compacted run to `out`, in (tuples) order.
  void AppendMinimal(std::vector<ViolationSet>* out) const;

 private:
  const uint64_t* record(size_t i) const { return data_.data() + i * width_; }
  size_t RecordSize(const uint64_t* rec) const;
  bool Contains(const uint64_t* key) const;

  uint32_t ic_index_;
  size_t width_;
  size_t max_sets_;
  // Raw record count that triggers the next compaction in Append.
  size_t compact_at_;
  size_t count_ = 0;
  bool compacted_ = true;
  std::vector<uint64_t> data_;
};

/// Degrees of inconsistency (Definition 2.4): how many violation sets each
/// tuple belongs to, and the database-level maximum.
struct DegreeInfo {
  /// (TupleRef::Packed(), Deg(t, IC)) of every tuple in some violation set,
  /// sorted by tuple.
  std::vector<std::pair<uint64_t, uint32_t>> per_tuple;
  uint32_t max_degree = 0;

  /// Deg(t, IC); 0 for a tuple in no violation set.
  uint32_t Degree(TupleRef t) const {
    const auto it = std::lower_bound(
        per_tuple.begin(), per_tuple.end(), t.Packed(),
        [](const std::pair<uint64_t, uint32_t>& entry, uint64_t packed) {
          return entry.first < packed;
        });
    return it != per_tuple.end() && it->first == t.Packed() ? it->second : 0;
  }

  /// Number of tuples involved in some violation set.
  size_t num_tuples() const { return per_tuple.size(); }
};

/// Computes Deg(t, IC) for every tuple occurring in `violations` and
/// Deg(D, IC) as their maximum.
DegreeInfo ComputeDegrees(const std::vector<ViolationSet>& violations);

}  // namespace dbrepair

#endif  // DBREPAIR_CONSTRAINTS_VIOLATION_H_
