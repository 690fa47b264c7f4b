#ifndef DBREPAIR_REPAIR_REPAIR_BUILDER_H_
#define DBREPAIR_REPAIR_REPAIR_BUILDER_H_

#include <vector>

#include "common/status.h"
#include "repair/instance_builder.h"
#include "repair/setcover/instance.h"
#include "storage/database.h"

namespace dbrepair {

/// One attribute update applied while materialising a repair.
struct AppliedUpdate {
  TupleRef tuple;
  uint32_t attribute = 0;
  int64_t old_value = 0;
  int64_t new_value = 0;
};

/// The subsumption rule of Section 3 (remark after Algorithm 1): of the
/// chosen fixes, the one that wins each (tuple, attribute) cell, as an index
/// into `fixes`. A cover may hold several fixes for one cell (possible in
/// non-optimal covers); the highest weight wins, and on equal weight the
/// earliest in `chosen`. Winners come in (tuple, attribute) order — the
/// order repairs apply their updates in. Costs one sort of `chosen`; errors
/// on a set id outside `fixes`.
Result<std::vector<uint32_t>> WinningFixes(
    const std::vector<CandidateFix>& fixes,
    const std::vector<uint32_t>& chosen);

/// Materialises the repair D(C) of Definition 3.2 from a set cover:
///  * fixes of one tuple touching different attributes are combined into a
///    single local fix (Definition 3.2(a));
///  * of several fixes for one (tuple, attribute), WinningFixes keeps one;
///  * the resulting updates are applied to a Clone() of `db`, and appended
///    to `applied` in (tuple, attribute) order.
/// The cost is one copy of `db`'s rows plus O(|C| log |C|): nothing is
/// re-validated or re-indexed per row.
Result<Database> ApplyCover(const Database& db, const RepairProblem& problem,
                            const SetCoverSolution& cover,
                            std::vector<AppliedUpdate>* applied = nullptr);

/// The repair pipeline's verify phase: OK iff `repaired`, which is `db`
/// with exactly `updates` applied, satisfies `ics`; Internal otherwise.
/// `problem` must be BuildRepairProblem's output for `db` and `ics`.
///
/// Costs O(updates) plus the join work around the updated rows instead of
/// a full rescan:
///  1. Coverage check, O(sum of set sizes): every violation set of `db`
///     must have an updated member. A cover guarantees it; a set without
///     one fails here.
///  2. Given (1), a violation set of `repaired` with no updated member
///     would contain a violation set of `db`, hence an updated member, so
///     every violation set of `repaired` touches an updated row.
///     FindViolationsTouching over the updated rows enumerates exactly
///     those. Its engine scans `problem->snapshot` patched with the updated
///     cells (ColumnSnapshot::Patch) and adopts `problem->join_indexes`
///     after dropping every index keyed on an updated attribute; both are
///     consumed.
/// ViolationEngine::Satisfies over `repaired` gives the same verdict.
Status VerifyByDelta(const Database& repaired,
                     const std::vector<BoundConstraint>& ics,
                     const std::vector<AppliedUpdate>& updates,
                     ViolationEngineOptions engine_options,
                     RepairProblem* problem);

}  // namespace dbrepair

#endif  // DBREPAIR_REPAIR_REPAIR_BUILDER_H_
