#ifndef DBREPAIR_REPAIR_SETCOVER_CSR_INSTANCE_H_
#define DBREPAIR_REPAIR_SETCOVER_CSR_INSTANCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "repair/setcover/instance.h"

namespace dbrepair {

/// One repair batch's content, appended to a frozen instance by
/// CsrSetCoverInstance::AppendEpoch. The spans borrow the caller's element
/// lists; they only need to live until AppendEpoch returns.
struct CsrEpoch {
  /// Fresh elements this batch adds to the universe.
  size_t new_elements = 0;

  struct NewSet {
    double weight = 0.0;
    std::span<const uint32_t> elements;  ///< sorted, all fresh
  };
  /// Sets appended in order; they take ids num_sets(), num_sets() + 1, ...
  std::vector<NewSet> new_sets;

  struct Extension {
    uint32_t set_id = 0;                 ///< pre-epoch set that grew
    std::span<const uint32_t> elements;  ///< appended; sorted, all fresh
    double weight = 0.0;                 ///< the set's weight after the batch
  };
  /// Pre-epoch sets that gained elements (each at most once per batch —
  /// candidate fixes are deduplicated on their key before patching).
  std::vector<Extension> extended;
};

/// The MWSCP instance every solver and session reads: both incidence
/// directions live in flat uint32 arenas, so the solver hot loops stream
/// contiguous spans instead of pointer-chasing one heap allocation per set
/// and per element-link list.
///
/// Layout (all indices 0-based):
///
///   set_arena_   [ S0 elements | S1 elements | ... ]   set -> element ids
///   set_begin_   per set: offset of its span into set_arena_
///   set_size_    per set: span length (|S_i|)
///   weights_     per set: w(S_i), bit-identical to the source
///   elem_arena_  [ e0 links | e1 links | ... ]         element -> set ids
///   elem_offsets_ num_elements+1 offsets into elem_arena_ (classic CSR)
///
/// Freeze() builds both arenas from the SetCoverInstance builder: one pass
/// over the sets plus a two-pass counting fill for the cross links, so
/// every element's link list comes out in ascending set-id order.
///
/// Repair sessions grow the instance in place with AppendEpoch(): element
/// ids are allocated globally ascending and a batch's fixes only ever
/// reference that batch's fresh violation ids, so the element->set arena
/// extends purely by appending the new elements' lists. In the
/// set->element arena, appended sets extend the tail and a grown pre-epoch
/// set relocates its whole span to the tail (the old span becomes dead
/// slack, compacted once it exceeds half the arena). Set ids never move,
/// so relocation is invisible to the solvers.
class CsrSetCoverInstance {
 public:
  CsrSetCoverInstance() = default;

  /// Freezes `source` into flat arenas. Does not require element links;
  /// the cross-link arena is rebuilt with a counting fill. Records the
  /// solve.csr.* metrics (arena bytes, max frequency, density, freeze
  /// time) on the current ObsContext.
  static CsrSetCoverInstance Freeze(const SetCoverInstance& source);

  size_t num_elements() const { return num_elements_; }
  size_t num_sets() const { return weights_.size(); }
  double weight(uint32_t s) const { return weights_[s]; }
  uint32_t set_size(uint32_t s) const { return set_size_[s]; }

  /// The sorted element ids of set `s` (contiguous arena span).
  std::span<const uint32_t> elements_of(uint32_t s) const {
    return {set_arena_.data() + set_begin_[s], set_size_[s]};
  }

  /// The ascending set ids covering element `e` (contiguous arena span).
  std::span<const uint32_t> sets_of(uint32_t e) const {
    return {elem_arena_.data() + elem_offsets_[e],
            elem_offsets_[e + 1] - elem_offsets_[e]};
  }

  /// Largest number of sets any element occurs in (the layer algorithm's
  /// approximation factor f); maintained by Freeze() and AppendEpoch().
  size_t max_frequency() const { return max_frequency_; }

  /// Total bytes held by the two id arenas plus offsets and weights.
  size_t arena_bytes() const;

  /// Arena slots orphaned by relocated (extended) set spans.
  size_t dead_slots() const { return dead_slots_; }

  /// Appends one batch: `epoch.new_elements` fresh elements, the new sets,
  /// and the extensions of pre-epoch sets. Every element the epoch links
  /// must be fresh (the session invariant) and every span sorted; anything
  /// else is an Internal error and the instance must be considered out of
  /// sync with its session.
  Status AppendEpoch(const CsrEpoch& epoch);

  /// Structural self-checks: offsets monotone and in range, spans sorted
  /// and duplicate-free, cross links consistent in both directions,
  /// weights non-negative, every element covered (feasibility).
  Status Validate() const;

  /// Checks this instance holds exactly the content of `source`: same
  /// universe, bit-equal weights, identical per-set spans. (The cross
  /// links follow from the spans; Validate() checks both directions.)
  Status Mirrors(const SetCoverInstance& source) const;

  /// Extracts whole conflict components as one standalone frozen instance:
  /// `sets`/`elements` are their global ids in ascending order and
  /// `set_local`/`elem_local` the global->local renumberings of those ids
  /// (both order-preserving: local ids ascend with global ids). Weights are
  /// copied bit for bit and both arenas keep their global iteration order,
  /// so a solver run on the extract performs exactly the monolithic run's
  /// operations restricted to these components. A straight arena copy — no
  /// metrics, it runs inside the solve fan-out.
  CsrSetCoverInstance ExtractComponent(
      const std::vector<uint32_t>& sets, const std::vector<uint32_t>& elements,
      const std::vector<uint32_t>& set_local,
      const std::vector<uint32_t>& elem_local) const;

 private:
  // Rebuilds set_arena_ in set-id order, dropping dead slack.
  void CompactSetArena();

  size_t num_elements_ = 0;
  std::vector<double> weights_;
  std::vector<uint32_t> set_begin_;
  std::vector<uint32_t> set_size_;
  std::vector<uint32_t> set_arena_;
  std::vector<uint32_t> elem_offsets_{0};
  std::vector<uint32_t> elem_arena_;
  size_t max_frequency_ = 0;
  size_t dead_slots_ = 0;
};

}  // namespace dbrepair

#endif  // DBREPAIR_REPAIR_SETCOVER_CSR_INSTANCE_H_
