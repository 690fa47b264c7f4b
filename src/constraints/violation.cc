#include "constraints/violation.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <numeric>

namespace dbrepair {

namespace {

bool SetLess(const ViolationSet& a, const ViolationSet& b) {
  if (a.ic_index != b.ic_index) return a.ic_index < b.ic_index;
  return a.tuples < b.tuples;
}

// Sorts and dedupes `count` records of width W held contiguously in `data`
// as std::array values, so the comparisons compile to fixed-length loops.
// Returns the distinct count; the distinct records are left in front.
template <size_t W>
size_t SortUniqueFixed(std::vector<uint64_t>* data, size_t count) {
  using Record = std::array<uint64_t, W>;
  static_assert(sizeof(Record) == W * sizeof(uint64_t));
  std::vector<Record> records(count);
  std::memcpy(records.data(), data->data(), count * sizeof(Record));
  std::sort(records.begin(), records.end());
  const auto distinct = static_cast<size_t>(
      std::unique(records.begin(), records.end()) - records.begin());
  std::memcpy(data->data(), records.data(), distinct * sizeof(Record));
  return distinct;
}

// Any width: sorts a permutation, then gathers the distinct records.
size_t SortUniqueAnyWidth(std::vector<uint64_t>* data, size_t width,
                          size_t count) {
  const uint64_t* base = data->data();
  std::vector<size_t> order(count);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::lexicographical_compare(base + a * width,
                                        base + (a + 1) * width,
                                        base + b * width,
                                        base + (b + 1) * width);
  });
  std::vector<uint64_t> sorted;
  sorted.reserve(count * width);
  for (const size_t i : order) {
    const uint64_t* rec = base + i * width;
    if (!sorted.empty() &&
        std::equal(rec, rec + width, sorted.end() - static_cast<long>(width))) {
      continue;
    }
    sorted.insert(sorted.end(), rec, rec + width);
  }
  data->swap(sorted);
  return data->size() / width;
}

}  // namespace

bool ViolationSet::Contains(TupleRef ref) const {
  return std::binary_search(tuples.begin(), tuples.end(), ref);
}

std::string ViolationSet::ToString() const {
  std::string out = "ic" + std::to_string(ic_index + 1) + ": {";
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i > 0) out += ", ";
    out += "R" + std::to_string(tuples[i].relation) + "[" +
           std::to_string(tuples[i].row) + "]";
  }
  out += "}";
  return out;
}

void SortViolationSets(std::vector<ViolationSet>* sets) {
  if (!std::is_sorted(sets->begin(), sets->end(), SetLess)) {
    std::sort(sets->begin(), sets->end(), SetLess);
  }
}

ViolationBuffer::ViolationBuffer(uint32_t ic_index, size_t width,
                                 size_t max_sets)
    : ic_index_(ic_index),
      width_(width),
      max_sets_(max_sets),
      compact_at_(max_sets) {
  assert(width >= 1 && "a bound constraint has at least one atom");
}

bool ViolationBuffer::Append(const TupleRef* tuples) {
  const size_t base = data_.size();
  data_.resize(base + width_);
  uint64_t* rec = data_.data() + base;
  // Insertion sort: a record holds one id per atom, a handful at most.
  for (size_t i = 0; i < width_; ++i) {
    const uint64_t id = tuples[i].Packed();
    size_t j = i;
    for (; j > 0 && rec[j - 1] > id; --j) rec[j] = rec[j - 1];
    rec[j] = id;
  }
  uint64_t* end = std::unique(rec, rec + width_);
  std::fill(end, rec + width_, uint64_t{0});
  ++count_;
  compacted_ = false;
  if (count_ > compact_at_) {
    // The cap counts distinct sets, so repeats are dropped before it is
    // checked; the next check waits until the run has doubled, which keeps
    // the compactions' total cost O(n log n).
    if (!Compact()) return false;
    compact_at_ = std::max(max_sets_, 2 * count_);
  }
  return true;
}

bool ViolationBuffer::Compact() {
  if (compacted_) return count_ <= max_sets_;
  switch (width_) {
    case 1:
      count_ = SortUniqueFixed<1>(&data_, count_);
      break;
    case 2:
      count_ = SortUniqueFixed<2>(&data_, count_);
      break;
    case 3:
      count_ = SortUniqueFixed<3>(&data_, count_);
      break;
    case 4:
      count_ = SortUniqueFixed<4>(&data_, count_);
      break;
    default:
      count_ = SortUniqueAnyWidth(&data_, width_, count_);
      break;
  }
  data_.resize(count_ * width_);
  compacted_ = true;
  return count_ <= max_sets_;
}

ViolationBuffer ViolationBuffer::MergeRuns(
    std::vector<ViolationBuffer>* runs) {
  assert(!runs->empty());
  if (runs->size() == 1) return std::move(runs->front());
  const ViolationBuffer& first = runs->front();
  ViolationBuffer merged(first.ic_index_, first.width_, first.max_sets_);
  const size_t width = first.width_;
  size_t total = 0;
  for (const ViolationBuffer& run : *runs) {
    assert(run.compacted_ && run.width_ == width);
    total += run.count_;
  }
  merged.data_.reserve(total * width);

  // Binary min-heap of run heads; equal heads are emitted once.
  std::vector<std::pair<size_t, size_t>> heap;  // (run, record index)
  const auto head_after = [&](const std::pair<size_t, size_t>& a,
                              const std::pair<size_t, size_t>& b) {
    const uint64_t* ra = (*runs)[a.first].record(a.second);
    const uint64_t* rb = (*runs)[b.first].record(b.second);
    return std::lexicographical_compare(rb, rb + width, ra, ra + width);
  };
  for (size_t r = 0; r < runs->size(); ++r) {
    if ((*runs)[r].count_ > 0) heap.emplace_back(r, 0);
  }
  std::make_heap(heap.begin(), heap.end(), head_after);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), head_after);
    auto [r, i] = heap.back();
    heap.pop_back();
    const uint64_t* rec = (*runs)[r].record(i);
    if (merged.count_ == 0 ||
        !std::equal(rec, rec + width,
                    merged.data_.end() - static_cast<long>(width))) {
      merged.data_.insert(merged.data_.end(), rec, rec + width);
      ++merged.count_;
    }
    if (++i < (*runs)[r].count_) {
      heap.emplace_back(r, i);
      std::push_heap(heap.begin(), heap.end(), head_after);
    }
  }
  runs->clear();
  return merged;
}

size_t ViolationBuffer::RecordSize(const uint64_t* rec) const {
  size_t size = 1;
  while (size < width_ && rec[size] != 0) ++size;
  return size;
}

bool ViolationBuffer::Contains(const uint64_t* key) const {
  size_t lo = 0;
  size_t hi = count_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const uint64_t* rec = record(mid);
    if (std::lexicographical_compare(rec, rec + width_, key, key + width_)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < count_ && std::equal(key, key + width_, record(lo));
}

void ViolationBuffer::AppendMinimal(std::vector<ViolationSet>* out) const {
  assert(compacted_);
  // Minimality filter (Definition 2.4): a set is dropped when a proper
  // subset is a violation set too. No subset smaller than the run's
  // smallest record can be in the run, so such masks are skipped, and a
  // run of equal-size records (the common case) needs no lookup at all.
  size_t min_size = width_;
  for (size_t i = 0; i < count_; ++i) {
    min_size = std::min(min_size, RecordSize(record(i)));
  }
  std::vector<uint64_t> sub(width_);
  out->reserve(out->size() + count_);
  for (size_t i = 0; i < count_; ++i) {
    const uint64_t* rec = record(i);
    const size_t k = RecordSize(rec);
    bool minimal = true;
    if (k > min_size && k <= 16) {
      for (uint32_t mask = 1; mask + 1 < (1u << k) && minimal; ++mask) {
        if (static_cast<size_t>(std::popcount(mask)) < min_size) continue;
        size_t n = 0;
        for (size_t j = 0; j < k; ++j) {
          if (mask & (1u << j)) sub[n++] = rec[j];
        }
        std::fill(sub.begin() + static_cast<long>(n), sub.end(), uint64_t{0});
        minimal = !Contains(sub.data());
      }
    }
    if (!minimal) continue;
    ViolationSet& vs = out->emplace_back();
    vs.ic_index = ic_index_;
    vs.tuples.reserve(k);
    for (size_t j = 0; j < k; ++j) {
      vs.tuples.push_back(TupleRef::FromPacked(rec[j]));
    }
  }
}

DegreeInfo ComputeDegrees(const std::vector<ViolationSet>& violations) {
  // Count per (relation, row) in one dense array per relation, then read
  // the counts back in (relation, row) order: the order and values a sort
  // of every member would give, without the sort. Row ids must index the
  // instance's tables, so the arrays hold at most one counter per row.
  std::vector<std::vector<uint32_t>> counts;
  for (const ViolationSet& v : violations) {
    for (const TupleRef& t : v.tuples) {
      if (t.relation >= counts.size()) counts.resize(t.relation + 1);
      std::vector<uint32_t>& rows = counts[t.relation];
      if (t.row >= rows.size()) rows.resize(t.row + 1, 0);
      ++rows[t.row];
    }
  }
  DegreeInfo info;
  for (uint32_t r = 0; r < counts.size(); ++r) {
    for (uint32_t row = 0; row < counts[r].size(); ++row) {
      const uint32_t degree = counts[r][row];
      if (degree == 0) continue;
      info.per_tuple.emplace_back(TupleRef{r, row}.Packed(), degree);
      info.max_degree = std::max(info.max_degree, degree);
    }
  }
  return info;
}

}  // namespace dbrepair
