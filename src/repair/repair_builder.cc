#include "repair/repair_builder.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "obs/context.h"
#include "obs/trace.h"

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

Status VerifyByDelta(const Database& repaired,
                     const std::vector<BoundConstraint>& ics,
                     const std::vector<AppliedUpdate>& updates,
                     ViolationEngineOptions engine_options,
                     RepairProblem* problem) {
  obs::ObsContext& obs = obs::CurrentObs();
  obs::Span coverage_span(&obs.tracer, "coverage");
  std::vector<std::vector<uint8_t>> updated_rows(repaired.relation_count());
  for (uint32_t r = 0; r < repaired.relation_count(); ++r) {
    updated_rows[r].assign(repaired.table(r).size(), 0);
  }
  std::vector<std::pair<TupleRef, uint32_t>> cells;
  cells.reserve(updates.size());
  std::vector<std::vector<uint32_t>> attributes(repaired.relation_count());
  for (const AppliedUpdate& update : updates) {
    const TupleRef t = update.tuple;
    updated_rows[t.relation][t.row] = 1;
    cells.emplace_back(t, update.attribute);
    std::vector<uint32_t>& attrs = attributes[t.relation];
    if (std::find(attrs.begin(), attrs.end(), update.attribute) ==
        attrs.end()) {
      attrs.push_back(update.attribute);
    }
  }

  for (const ViolationSet& v : problem->violations) {
    if (std::none_of(v.tuples.begin(), v.tuples.end(), [&](TupleRef t) {
          return updated_rows[t.relation][t.row] != 0;
        })) {
      return Status::Internal("violation set " + v.ToString() +
                              " has no updated member; the cover does not "
                              "cover it");
    }
  }

  coverage_span.Finish();

  obs::Span snapshot_span(&obs.tracer, "snapshot");
  const size_t built_indexes = problem->join_indexes.size();
  for (uint32_t r = 0; r < attributes.size(); ++r) {
    if (!attributes[r].empty()) {
      problem->join_indexes.DropColumns(r, attributes[r]);
    }
  }
  obs.metrics.GetCounter("verify.indexes_reused")
      ->Add(problem->join_indexes.size());
  obs.metrics.GetCounter("verify.indexes_dropped")
      ->Add(built_indexes - problem->join_indexes.size());

  ColumnSnapshot snapshot;
  engine_options.columnar = nullptr;
  if (problem->snapshot.valid()) {
    snapshot = problem->snapshot.Patch(repaired, cells);
    engine_options.columnar = &snapshot;
    obs.metrics.GetCounter("scan.columnar.patches")->Add(1);
    obs.metrics.GetCounter("scan.columnar.patched_cells")->Add(cells.size());
  }
  snapshot_span.Finish();

  obs::Span scan_span(&obs.tracer, "scan");
  ViolationEngine engine(repaired, ics, engine_options);
  engine.AdoptIndexCache(std::move(problem->join_indexes));
  DBREPAIR_ASSIGN_OR_RETURN(const std::vector<ViolationSet> violations,
                            engine.FindViolationsTouching(updated_rows));
  if (!violations.empty()) {
    return Status::Internal(
        "produced instance still violates the constraints (" +
        violations.front().ToString() + "); the IC set is not local");
  }
  return Status::OK();
}

}  // namespace dbrepair
