#include "repair/setcover/instance.h"

#include <algorithm>
#include <string>

#include "repair/setcover/csr_instance.h"

namespace dbrepair {

Status SetCoverInstance::Validate() const {
  if (weights.size() != sets.size()) {
    return Status::Internal("set cover instance: |weights| != |sets|");
  }
  // One pass over every set checks the weight sign, range, ordering, and
  // duplicates while counting each element's coverage.
  std::vector<uint32_t> counted(num_elements, 0);
  for (uint32_t s = 0; s < sets.size(); ++s) {
    if (weights[s] < 0.0) {
      return Status::Internal("set cover instance: negative weight at set " +
                              std::to_string(s));
    }
    uint32_t prev = 0;
    bool first = true;
    for (const uint32_t e : sets[s]) {
      if (e >= num_elements) {
        return Status::Internal(
            "set cover instance: element id out of range in set " +
            std::to_string(s));
      }
      if (!first && e < prev) {
        return Status::Internal("set cover instance: set " +
                                std::to_string(s) + " is not sorted");
      }
      if (!first && e == prev) {
        return Status::Internal("set cover instance: set " +
                                std::to_string(s) +
                                " has duplicate elements");
      }
      prev = e;
      first = false;
      ++counted[e];
    }
  }
  for (uint32_t e = 0; e < num_elements; ++e) {
    if (counted[e] == 0) {
      return Status::Internal("set cover instance: element " +
                              std::to_string(e) +
                              " is covered by no set (infeasible)");
    }
  }
  // The frozen view must round-trip: freezing a valid instance yields a
  // CSR that passes its own structural checks and mirrors this one.
  const CsrSetCoverInstance csr = CsrSetCoverInstance::Freeze(*this);
  DBREPAIR_RETURN_IF_ERROR(csr.Validate());
  DBREPAIR_RETURN_IF_ERROR(csr.Mirrors(*this));
  return Status::OK();
}

double SetCoverInstance::SelectionWeight(
    const std::vector<uint32_t>& chosen) const {
  double total = 0.0;
  for (const uint32_t s : chosen) total += weights[s];
  return total;
}

bool SetCoverInstance::IsCover(const std::vector<uint32_t>& chosen) const {
  std::vector<bool> covered(num_elements, false);
  for (const uint32_t s : chosen) {
    for (const uint32_t e : sets[s]) covered[e] = true;
  }
  return std::all_of(covered.begin(), covered.end(),
                     [](bool c) { return c; });
}

const char* SolverKindName(SolverKind kind) {
  switch (kind) {
    case SolverKind::kGreedy:
      return "greedy";
    case SolverKind::kModifiedGreedy:
      return "modified-greedy";
    case SolverKind::kLazyGreedy:
      return "lazy-greedy";
    case SolverKind::kLayer:
      return "layer";
    case SolverKind::kModifiedLayer:
      return "modified-layer";
    case SolverKind::kExact:
      return "exact";
  }
  return "unknown";
}

}  // namespace dbrepair
