// Repair materialisation: the subsumption rule that picks one fix per cell
// (WinningFixes / ApplyCover), and the pipeline's Delta(D, D') computed from
// the applied updates, checked bit for bit against the full-rescan oracle
// DistanceFunction::DatabaseDistance on every generator.

#include "repair/repair_builder.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/paper_example.h"
#include "gen/scenario.h"
#include "repair/api.h"

namespace dbrepair {
namespace {

CandidateFix Fix(const Database& db, uint32_t row, uint32_t attribute,
                 int64_t new_value, double weight) {
  CandidateFix fix;
  fix.tuple = TupleRef{0, row};
  fix.attribute = attribute;
  fix.old_value = db.table(0).row(row).value(attribute).AsInt();
  fix.new_value = new_value;
  fix.weight = weight;
  return fix;
}

// Paper(ID, EF, PRC, CF): two fixes on EF of row 0 at equal weight, two on
// PRC of row 1 at different weights, one lone fix on CF of row 0.
TEST(ApplyCoverTest, OneFixPerCellHighestWeightThenEarliestPick) {
  const GeneratedWorkload w = MakePaperTableExample();
  RepairProblem problem;
  problem.fixes = {
      Fix(w.db, 1, 2, 50, 0.5),  // 0: row 1 PRC, lighter
      Fix(w.db, 0, 1, 0, 1.0),   // 1: row 0 EF, equal weight, picked later
      Fix(w.db, 1, 2, 60, 1.5),  // 2: row 1 PRC, heavier, picked last
      Fix(w.db, 0, 1, 5, 1.0),   // 3: row 0 EF, equal weight, picked first
      Fix(w.db, 0, 3, 1, 0.5),   // 4: row 0 CF, alone
  };
  SetCoverSolution cover;
  cover.chosen = {0, 3, 4, 1, 2};

  const auto winners = WinningFixes(problem.fixes, cover.chosen);
  ASSERT_TRUE(winners.ok()) << winners.status().ToString();
  EXPECT_EQ(*winners, (std::vector<uint32_t>{3, 4, 2}));

  std::vector<AppliedUpdate> updates;
  const auto repaired = ApplyCover(w.db, problem, cover, &updates);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  // (tuple, attribute) order, one update per cell.
  ASSERT_EQ(updates.size(), 3u);
  EXPECT_EQ(updates[0].tuple, (TupleRef{0, 0}));
  EXPECT_EQ(updates[0].attribute, 1u);
  EXPECT_EQ(updates[0].new_value, 5);
  EXPECT_EQ(updates[1].tuple, (TupleRef{0, 0}));
  EXPECT_EQ(updates[1].attribute, 3u);
  EXPECT_EQ(updates[1].new_value, 1);
  EXPECT_EQ(updates[2].tuple, (TupleRef{0, 1}));
  EXPECT_EQ(updates[2].attribute, 2u);
  EXPECT_EQ(updates[2].old_value, 20);
  EXPECT_EQ(updates[2].new_value, 60);

  EXPECT_EQ(repaired->table(0).row(0).value(1), Value::Int(5));
  EXPECT_EQ(repaired->table(0).row(0).value(3), Value::Int(1));
  EXPECT_EQ(repaired->table(0).row(1).value(2), Value::Int(60));
  EXPECT_TRUE(repaired->table(0).row(2) == w.db.table(0).row(2));
  // The input instance is untouched.
  EXPECT_EQ(w.db.table(0).row(0).value(1), Value::Int(1));

  // The pick order alone settles an equal-weight tie.
  cover.chosen = {1, 3};
  EXPECT_EQ(*WinningFixes(problem.fixes, cover.chosen),
            (std::vector<uint32_t>{1}));
}

TEST(ApplyCoverTest, RejectsUnknownSetId) {
  const GeneratedWorkload w = MakePaperTableExample();
  RepairProblem problem;
  problem.fixes = {Fix(w.db, 0, 1, 0, 1.0)};
  SetCoverSolution cover;
  cover.chosen = {0, 1};
  const auto repaired = ApplyCover(w.db, problem, cover);
  ASSERT_FALSE(repaired.ok());
  EXPECT_EQ(repaired.status().code(), StatusCode::kInvalidArgument);
}

struct NamedWorkload {
  std::string name;
  GeneratedWorkload workload;
};

std::vector<NamedWorkload> EveryGenerator() {
  std::vector<NamedWorkload> out;
  out.push_back({"paper-table", MakePaperTableExample()});
  out.push_back({"paper-pub", MakePaperPubExample()});
  // Census weighs NCARS 0.5 and INC 0.1, so the distance's summation order
  // shows in its low bits.
  for (const char* name :
       {"census", "client-buy", "zipf-hotspot", "sensor-drift", "adversary"}) {
    ScenarioSpec spec;
    spec.name = name;
    spec.rows = 3000;
    spec.seed = 17;
    auto workload = GenerateScenario(spec);
    EXPECT_TRUE(workload.ok()) << name << ": " << workload.status().ToString();
    if (workload.ok()) out.push_back({name, std::move(workload).value()});
  }
  return out;
}

TEST(RepairDistanceTest, UpdatedTupleSumIsBitEqualToFullRescan) {
  for (const NamedWorkload& w : EveryGenerator()) {
    for (const DistanceKind kind : {DistanceKind::kL1, DistanceKind::kL2}) {
      for (const bool prune : {false, true}) {
        for (const size_t threads : {size_t{1}, size_t{4}}) {
          SCOPED_TRACE(w.name + (kind == DistanceKind::kL1 ? " L1" : " L2") +
                       (prune ? " prune" : "") + " threads " +
                       std::to_string(threads));
          RepairOptions options;
          options.distance = kind;
          options.prune_cover = prune;
          options.num_threads = threads;
          const auto outcome =
              RepairDatabase(w.workload.db, w.workload.ics, options);
          ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
          const auto oracle = DistanceFunction(kind).DatabaseDistance(
              w.workload.db, outcome->repaired);
          ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
          EXPECT_GT(*oracle, 0.0);  // every workload here is inconsistent
          EXPECT_EQ(outcome->stats.distance, *oracle);  // bit-equal
        }
      }
    }
  }
}

}  // namespace
}  // namespace dbrepair
