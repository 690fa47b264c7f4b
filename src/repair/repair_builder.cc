#include "repair/repair_builder.h"

#include <algorithm>
#include <tuple>

namespace dbrepair {

Result<std::vector<uint32_t>> WinningFixes(
    const std::vector<CandidateFix>& fixes,
    const std::vector<uint32_t>& chosen) {
  // One sort of (cell, position in `chosen`) puts each cell's fixes next to
  // each other in pick order; the fold below then keeps the first fix of
  // the highest weight, as folding the picks in cover order would.
  struct Pick {
    uint64_t tuple;
    uint32_t attribute;
    uint32_t position;
  };
  std::vector<Pick> picks;
  picks.reserve(chosen.size());
  for (uint32_t p = 0; p < chosen.size(); ++p) {
    const uint32_t set_id = chosen[p];
    if (set_id >= fixes.size()) {
      return Status::InvalidArgument("cover references unknown set id " +
                                     std::to_string(set_id));
    }
    picks.push_back(
        {fixes[set_id].tuple.Packed(), fixes[set_id].attribute, p});
  }
  std::sort(picks.begin(), picks.end(), [](const Pick& a, const Pick& b) {
    return std::tie(a.tuple, a.attribute, a.position) <
           std::tie(b.tuple, b.attribute, b.position);
  });

  std::vector<uint32_t> winners;
  winners.reserve(picks.size());
  for (size_t i = 0; i < picks.size(); ++i) {
    const uint32_t set_id = chosen[picks[i].position];
    if (i > 0 && picks[i].tuple == picks[i - 1].tuple &&
        picks[i].attribute == picks[i - 1].attribute) {
      if (fixes[winners.back()].weight < fixes[set_id].weight) {
        winners.back() = set_id;
      }
    } else {
      winners.push_back(set_id);
    }
  }
  return winners;
}

Result<Database> ApplyCover(const Database& db, const RepairProblem& problem,
                            const SetCoverSolution& cover,
                            std::vector<AppliedUpdate>* applied) {
  DBREPAIR_ASSIGN_OR_RETURN(const std::vector<uint32_t> winners,
                            WinningFixes(problem.fixes, cover.chosen));
  Database repaired = db.Clone();
  if (applied != nullptr) applied->reserve(applied->size() + winners.size());
  for (const uint32_t fix_id : winners) {
    const CandidateFix& fix = problem.fixes[fix_id];
    DBREPAIR_RETURN_IF_ERROR(
        repaired.mutable_table(fix.tuple.relation)
            .UpdateValue(fix.tuple.row, fix.attribute,
                         Value::Int(fix.new_value)));
    if (applied != nullptr) {
      applied->push_back(AppliedUpdate{fix.tuple, fix.attribute,
                                       fix.old_value, fix.new_value});
    }
  }
  return repaired;
}

}  // namespace dbrepair
