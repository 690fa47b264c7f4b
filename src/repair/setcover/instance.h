#ifndef DBREPAIR_REPAIR_SETCOVER_INSTANCE_H_
#define DBREPAIR_REPAIR_SETCOVER_INSTANCE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace dbrepair {

/// A Minimum-Weight Set-Cover instance (U, S, w) (Definition 3.1 view) as
/// a plain builder: elements are violation-set ids, sets are candidate-fix
/// ids. Its one job is to feed CsrSetCoverInstance::Freeze, which builds
/// the element->sets cross links (the Algorithm-4 structure) every solver
/// reads.
struct SetCoverInstance {
  size_t num_elements = 0;
  /// Per-set weight w(S_i) >= 0.
  std::vector<double> weights;
  /// Per-set sorted element ids.
  std::vector<std::vector<uint32_t>> sets;

  size_t num_sets() const { return sets.size(); }

  /// Structural checks: ids in range, sets sorted and duplicate-free,
  /// weights non-negative, every element covered by at least one set
  /// (feasibility). Also round-trips the freeze: Freeze() of a valid
  /// instance must pass CsrSetCoverInstance::Validate() and mirror it.
  Status Validate() const;

  /// Total weight of the given set selection.
  double SelectionWeight(const std::vector<uint32_t>& chosen) const;

  /// True iff `chosen` covers every element.
  bool IsCover(const std::vector<uint32_t>& chosen) const;
};

/// A solver's output: chosen set ids (in selection order) and their weight.
struct SetCoverSolution {
  std::vector<uint32_t> chosen;
  double weight = 0.0;
  /// Number of main-loop iterations the solver performed (for diagnostics).
  uint64_t iterations = 0;
  /// Per pick, the selection key the solver chose it under — the effective
  /// weight w(s)/|s \ covered| at pick time. Recorded by the greedy family
  /// (greedy, modified greedy, lazy greedy, incremental greedy), where the
  /// key sequence is non-decreasing; the component-sharded solve merges
  /// per-component pick streams on (key, set id) to reproduce the
  /// monolithic pick order exactly (component_solve.h). Empty for the
  /// layer/exact solvers, whose picks carry no such key.
  std::vector<double> pick_keys;
};

/// Which approximation algorithm to run.
enum class SolverKind {
  kGreedy,          ///< Algorithm 1: textbook greedy, O(n^2)-O(n^3).
  kModifiedGreedy,  ///< Algorithm 5: heap + links, O(n log n) bounded degree.
  kLazyGreedy,      ///< Greedy with lazy key reevaluation; same cover.
  kLayer,           ///< Layering (Hochbaum/Vazirani), f-approximation.
  kModifiedLayer,   ///< Layering on the linked structure, event-driven.
  kExact,           ///< Branch & bound; exponential, small instances only.
};

const char* SolverKindName(SolverKind kind);

}  // namespace dbrepair

#endif  // DBREPAIR_REPAIR_SETCOVER_INSTANCE_H_
