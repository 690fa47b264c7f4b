#include "repair/setcover/csr_instance.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "obs/context.h"

namespace dbrepair {

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

CsrSetCoverInstance CsrSetCoverInstance::Freeze(
    const SetCoverInstance& source) {
  const auto start = std::chrono::steady_clock::now();
  CsrSetCoverInstance csr;
  csr.num_elements_ = source.num_elements;
  csr.weights_ = source.weights;

  const size_t num_sets = source.sets.size();
  size_t nnz = 0;
  for (const std::vector<uint32_t>& set : source.sets) nnz += set.size();

  // ---- Set -> element spans: one contiguous fill in set-id order. ----
  csr.set_begin_.resize(num_sets);
  csr.set_size_.resize(num_sets);
  csr.set_arena_.reserve(nnz);
  for (uint32_t s = 0; s < num_sets; ++s) {
    csr.set_begin_[s] = static_cast<uint32_t>(csr.set_arena_.size());
    csr.set_size_[s] = static_cast<uint32_t>(source.sets[s].size());
    csr.set_arena_.insert(csr.set_arena_.end(), source.sets[s].begin(),
                          source.sets[s].end());
  }

  // ---- Element -> set cross links: two-pass counting fill. ----
  // Pass 1 counts each element's frequency; the prefix sum becomes the
  // offsets array. Pass 2 scatters set ids through a cursor copy, which —
  // iterating sets in ascending id order — yields ascending link lists.
  std::vector<uint32_t> counts(source.num_elements, 0);
  for (const std::vector<uint32_t>& set : source.sets) {
    for (const uint32_t e : set) ++counts[e];
  }
  csr.elem_offsets_.assign(source.num_elements + 1, 0);
  size_t max_frequency = 0;
  for (size_t e = 0; e < source.num_elements; ++e) {
    csr.elem_offsets_[e + 1] = csr.elem_offsets_[e] + counts[e];
    max_frequency = std::max<size_t>(max_frequency, counts[e]);
  }
  csr.max_frequency_ = max_frequency;
  csr.elem_arena_.resize(nnz);
  std::vector<uint32_t> cursor(csr.elem_offsets_.begin(),
                               csr.elem_offsets_.end() - 1);
  for (uint32_t s = 0; s < num_sets; ++s) {
    for (const uint32_t e : source.sets[s]) {
      csr.elem_arena_[cursor[e]++] = s;
    }
  }

  obs::ObsContext& obs = obs::CurrentObs();
  obs.events.RecordInstant("csr.freeze",
                           static_cast<double>(ElapsedNs(start)) * 1e-9);
  obs::MetricsRegistry& metrics = obs.metrics;
  metrics.GetCounter("solve.csr.freezes")->Add(1);
  metrics.GetCounter("solve.csr.freeze_ns")->Add(ElapsedNs(start));
  metrics.GetGauge("solve.csr.arena_bytes")
      ->Set(static_cast<double>(csr.arena_bytes()));
  metrics.GetGauge("solve.csr.max_frequency")
      ->Set(static_cast<double>(max_frequency));
  const double cells =
      static_cast<double>(source.num_elements) * static_cast<double>(num_sets);
  metrics.GetGauge("solve.csr.density")
      ->Set(cells > 0.0 ? static_cast<double>(nnz) / cells : 0.0);
  return csr;
}

CsrSetCoverInstance CsrSetCoverInstance::ExtractComponent(
    const std::vector<uint32_t>& sets, const std::vector<uint32_t>& elements,
    const std::vector<uint32_t>& set_local,
    const std::vector<uint32_t>& elem_local) const {
  CsrSetCoverInstance shard;
  shard.num_elements_ = elements.size();
  size_t nnz = 0;
  for (const uint32_t s : sets) nnz += set_size_[s];

  shard.weights_.reserve(sets.size());
  shard.set_begin_.reserve(sets.size());
  shard.set_size_.reserve(sets.size());
  shard.set_arena_.reserve(nnz);
  for (const uint32_t s : sets) {
    shard.weights_.push_back(weights_[s]);
    shard.set_begin_.push_back(static_cast<uint32_t>(shard.set_arena_.size()));
    shard.set_size_.push_back(set_size_[s]);
    // elem_local is monotone within the component, so the mapped span stays
    // strictly ascending like the global one.
    for (const uint32_t e : elements_of(s)) {
      shard.set_arena_.push_back(elem_local[e]);
    }
  }

  shard.elem_offsets_.clear();
  shard.elem_offsets_.reserve(elements.size() + 1);
  shard.elem_offsets_.push_back(0);
  shard.elem_arena_.reserve(nnz);
  for (const uint32_t e : elements) {
    // Every set covering e lives in this component, so set_local is defined
    // for the whole link span (and monotone: local link lists stay
    // ascending).
    const std::span<const uint32_t> links = sets_of(e);
    for (const uint32_t s : links) {
      shard.elem_arena_.push_back(set_local[s]);
    }
    shard.elem_offsets_.push_back(
        static_cast<uint32_t>(shard.elem_arena_.size()));
    shard.max_frequency_ = std::max(shard.max_frequency_, links.size());
  }
  return shard;
}

size_t CsrSetCoverInstance::arena_bytes() const {
  return (set_arena_.size() + elem_arena_.size() + set_begin_.size() +
          set_size_.size() + elem_offsets_.size()) *
             sizeof(uint32_t) +
         weights_.size() * sizeof(double);
}

Status CsrSetCoverInstance::AppendEpoch(const CsrEpoch& epoch) {
  const auto start = std::chrono::steady_clock::now();
  const size_t old_elements = num_elements_;
  const size_t new_elements = old_elements + epoch.new_elements;
  const auto old_sets = static_cast<uint32_t>(weights_.size());

  // ---- Check the whole epoch before touching the arenas. Every span must
  // be strictly ascending and link only this epoch's fresh elements: a
  // batch's fixes only ever reference that batch's violation ids, so no
  // pre-epoch element's link list may grow. ----
  const auto span_error = [&](std::span<const uint32_t> elems) {
    for (size_t i = 0; i < elems.size(); ++i) {
      if (elems[i] < old_elements) {
        return " links a pre-epoch element (the cross-link arena would go "
               "stale)";
      }
      if (elems[i] >= new_elements) return " links an element past the epoch";
      if (i > 0 && elems[i] <= elems[i - 1]) {
        return " is not strictly ascending";
      }
    }
    return static_cast<const char*>(nullptr);
  };
  // Extensions in ascending set-id order: the order the link scatter below
  // must visit them in, and adjacent duplicates are repeated extensions.
  std::vector<uint32_t> by_set(epoch.extended.size());
  for (uint32_t i = 0; i < by_set.size(); ++i) by_set[i] = i;
  std::sort(by_set.begin(), by_set.end(), [&](uint32_t a, uint32_t b) {
    return epoch.extended[a].set_id < epoch.extended[b].set_id;
  });
  for (size_t i = 0; i < by_set.size(); ++i) {
    const CsrEpoch::Extension& ext = epoch.extended[by_set[i]];
    const auto fail = [&](const char* why) {
      return Status::Internal("csr epoch append: extension of set " +
                              std::to_string(ext.set_id) + why);
    };
    if (ext.set_id >= old_sets) {
      return fail(", which the instance has never seen");
    }
    if (ext.elements.empty() ||
        (i > 0 && epoch.extended[by_set[i - 1]].set_id == ext.set_id)) {
      return fail(" must add elements, once per epoch");
    }
    if (const char* error = span_error(ext.elements)) return fail(error);
  }
  for (const CsrEpoch::NewSet& set : epoch.new_sets) {
    if (const char* error = span_error(set.elements)) {
      return Status::Internal(std::string("csr epoch append: appended set") +
                              error);
    }
  }

  // ---- Element -> set arena: the new elements' link lists append to the
  // arena, filled by the same two-pass counting fill as Freeze(). Extended
  // sets (ascending ids < old_sets) scatter before appended sets (ids >=
  // old_sets), so every list comes out in ascending set-id order. ----
  std::vector<uint32_t> counts(epoch.new_elements, 0);
  size_t new_links = 0;
  for (const CsrEpoch::Extension& ext : epoch.extended) {
    for (const uint32_t e : ext.elements) ++counts[e - old_elements];
    new_links += ext.elements.size();
  }
  for (const CsrEpoch::NewSet& set : epoch.new_sets) {
    for (const uint32_t e : set.elements) ++counts[e - old_elements];
    new_links += set.elements.size();
  }
  std::vector<uint32_t> cursor(epoch.new_elements);
  elem_offsets_.reserve(new_elements + 1);
  for (size_t i = 0; i < epoch.new_elements; ++i) {
    cursor[i] = elem_offsets_.back();
    elem_offsets_.push_back(elem_offsets_.back() + counts[i]);
    max_frequency_ = std::max<size_t>(max_frequency_, counts[i]);
  }
  elem_arena_.resize(elem_arena_.size() + new_links);
  for (const uint32_t i : by_set) {
    const CsrEpoch::Extension& ext = epoch.extended[i];
    for (const uint32_t e : ext.elements) {
      elem_arena_[cursor[e - old_elements]++] = ext.set_id;
    }
  }
  for (uint32_t i = 0; i < epoch.new_sets.size(); ++i) {
    for (const uint32_t e : epoch.new_sets[i].elements) {
      elem_arena_[cursor[e - old_elements]++] = old_sets + i;
    }
  }
  num_elements_ = new_elements;

  // ---- Extended pre-epoch sets: relocate the grown span to the tail. The
  // old span becomes dead slack; the set id (and thus every cross link)
  // is untouched. ----
  for (const CsrEpoch::Extension& ext : epoch.extended) {
    const uint32_t old_begin = set_begin_[ext.set_id];
    const uint32_t old_size = set_size_[ext.set_id];
    const size_t tail = set_arena_.size();
    set_arena_.resize(tail + old_size + ext.elements.size());
    std::copy_n(set_arena_.begin() + old_begin, old_size,
                set_arena_.begin() + tail);
    std::copy(ext.elements.begin(), ext.elements.end(),
              set_arena_.begin() + tail + old_size);
    set_begin_[ext.set_id] = static_cast<uint32_t>(tail);
    set_size_[ext.set_id] =
        static_cast<uint32_t>(old_size + ext.elements.size());
    weights_[ext.set_id] = ext.weight;
    dead_slots_ += old_size;
  }

  // ---- Appended sets extend the tail of the span arena. ----
  for (const CsrEpoch::NewSet& set : epoch.new_sets) {
    set_begin_.push_back(static_cast<uint32_t>(set_arena_.size()));
    set_size_.push_back(static_cast<uint32_t>(set.elements.size()));
    set_arena_.insert(set_arena_.end(), set.elements.begin(),
                      set.elements.end());
    weights_.push_back(set.weight);
  }

  // Long sessions with many relocations accumulate dead slack; compact
  // once it dominates so the arena stays within 2x of its live size.
  if (dead_slots_ > set_arena_.size() / 2) CompactSetArena();

  obs::ObsContext& obs = obs::CurrentObs();
  obs.events.RecordInstant("csr.epoch_append",
                           static_cast<double>(ElapsedNs(start)) * 1e-9);
  obs.events.RecordCounter("csr.arena_bytes",
                           static_cast<double>(arena_bytes()));
  obs.events.RecordCounter("csr.dead_slots",
                           static_cast<double>(dead_slots_));
  obs::MetricsRegistry& metrics = obs.metrics;
  metrics.GetCounter("solve.csr.epoch_appends")->Add(1);
  metrics.GetCounter("solve.csr.epoch_append_ns")->Add(ElapsedNs(start));
  metrics.GetCounter("solve.csr.relocated_sets")->Add(epoch.extended.size());
  metrics.GetGauge("solve.csr.arena_bytes")
      ->Set(static_cast<double>(arena_bytes()));
  metrics.GetGauge("solve.csr.max_frequency")
      ->Set(static_cast<double>(max_frequency_));
  metrics.GetGauge("solve.csr.dead_slots")
      ->Set(static_cast<double>(dead_slots_));
  return Status::OK();
}

void CsrSetCoverInstance::CompactSetArena() {
  std::vector<uint32_t> compact;
  compact.reserve(set_arena_.size() - dead_slots_);
  for (uint32_t s = 0; s < set_begin_.size(); ++s) {
    const auto begin = static_cast<uint32_t>(compact.size());
    compact.insert(compact.end(), set_arena_.begin() + set_begin_[s],
                   set_arena_.begin() + set_begin_[s] + set_size_[s]);
    set_begin_[s] = begin;
  }
  set_arena_ = std::move(compact);
  dead_slots_ = 0;
  obs::CurrentObs().metrics.GetCounter("solve.csr.compactions")->Add(1);
}

Status CsrSetCoverInstance::Validate() const {
  if (set_begin_.size() != weights_.size() ||
      set_size_.size() != weights_.size()) {
    return Status::Internal("csr instance: set arrays disagree on |S|");
  }
  if (elem_offsets_.size() != num_elements_ + 1 || elem_offsets_[0] != 0 ||
      elem_offsets_.back() != elem_arena_.size()) {
    return Status::Internal("csr instance: element offsets malformed");
  }
  size_t live = 0;
  for (uint32_t s = 0; s < weights_.size(); ++s) {
    if (weights_[s] < 0.0) {
      return Status::Internal("csr instance: negative weight at set " +
                              std::to_string(s));
    }
    if (static_cast<size_t>(set_begin_[s]) + set_size_[s] >
        set_arena_.size()) {
      return Status::Internal("csr instance: span of set " +
                              std::to_string(s) + " overruns the arena");
    }
    live += set_size_[s];
    const std::span<const uint32_t> elems = elements_of(s);
    for (size_t i = 0; i < elems.size(); ++i) {
      if (elems[i] >= num_elements_) {
        return Status::Internal(
            "csr instance: element id out of range in set " +
            std::to_string(s));
      }
      if (i > 0 && elems[i] <= elems[i - 1]) {
        return Status::Internal("csr instance: span of set " +
                                std::to_string(s) +
                                " is not strictly ascending");
      }
      // Cross-link check: e's ascending link list must contain s.
      const std::span<const uint32_t> links = sets_of(elems[i]);
      if (!std::binary_search(links.begin(), links.end(), s)) {
        return Status::Internal("csr instance: missing cross link from "
                                "element " + std::to_string(elems[i]) +
                                " to set " + std::to_string(s));
      }
    }
  }
  if (live + dead_slots_ != set_arena_.size()) {
    return Status::Internal("csr instance: dead-slot accounting is off");
  }
  if (live != elem_arena_.size()) {
    return Status::Internal(
        "csr instance: link arena size does not match the live span total");
  }
  for (uint32_t e = 0; e < num_elements_; ++e) {
    const std::span<const uint32_t> links = sets_of(e);
    if (links.empty()) {
      return Status::Internal("csr instance: element " + std::to_string(e) +
                              " is covered by no set (infeasible)");
    }
    for (size_t i = 0; i < links.size(); ++i) {
      if (links[i] >= weights_.size()) {
        return Status::Internal(
            "csr instance: set id out of range in links of element " +
            std::to_string(e));
      }
      if (i > 0 && links[i] <= links[i - 1]) {
        return Status::Internal("csr instance: links of element " +
                                std::to_string(e) +
                                " are not strictly ascending");
      }
    }
  }
  return Status::OK();
}

Status CsrSetCoverInstance::Mirrors(const SetCoverInstance& source) const {
  if (num_elements_ != source.num_elements ||
      weights_.size() != source.sets.size()) {
    return Status::Internal("csr mirror: universe size mismatch");
  }
  for (uint32_t s = 0; s < weights_.size(); ++s) {
    if (weights_[s] != source.weights[s]) {
      return Status::Internal("csr mirror: weight drift at set " +
                              std::to_string(s));
    }
    const std::span<const uint32_t> span = elements_of(s);
    if (!std::equal(span.begin(), span.end(), source.sets[s].begin(),
                    source.sets[s].end())) {
      return Status::Internal("csr mirror: span of set " + std::to_string(s) +
                              " diverges from the source instance");
    }
  }
  return Status::OK();
}

}  // namespace dbrepair
