// The repair pipeline's verify phase (VerifyByDelta: coverage check plus a
// scan of the violation sets touching an updated row, on the build's join
// indexes and a patched snapshot) against the full rescan
// (ViolationEngine::Satisfies). Both must give the same verdict:
//   * on the repair of every generator, at 1 and 4 threads, on the row and
//     the columnar path;
//   * on a copy of that repair with one updated cell reverted;
//   * on the repair of a cover missing one set (the coverage check fails);
//   * on a non-local IC set whose repair creates a violation through a join
//     on an updated attribute, which only a dropped (not stale) join index
//     finds.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "constraints/parser.h"
#include "constraints/violation_engine.h"
#include "gen/paper_example.h"
#include "gen/scenario.h"
#include "repair/api.h"
#include "repair/setcover/csr_instance.h"

namespace dbrepair {
namespace {

struct Config {
  size_t threads;
  bool columnar;
};

std::string Describe(const Config& c) {
  return std::to_string(c.threads) + (c.columnar ? "t columnar" : "t row");
}

// Builds `db`'s repair problem and the modified-greedy cover of it.
struct Built {
  RepairProblem problem;
  SetCoverSolution cover;
};

Built Build(const Database& db, const std::vector<BoundConstraint>& ics,
            const Config& config, ThreadPool* pool) {
  BuildOptions options;
  options.num_threads = config.threads;
  options.use_columnar_scan = config.columnar;
  Result<RepairProblem> problem =
      BuildRepairProblem(db, ics, DistanceFunction(), options, pool);
  EXPECT_TRUE(problem.ok()) << problem.status().ToString();
  Built built{std::move(problem).value(), {}};
  const CsrSetCoverInstance csr =
      CsrSetCoverInstance::Freeze(built.problem.instance);
  Result<SetCoverSolution> cover =
      SolveSetCover(SolverKind::kModifiedGreedy, csr);
  EXPECT_TRUE(cover.ok()) << cover.status().ToString();
  built.cover = std::move(cover).value();
  return built;
}

Status Verify(const Database& repaired,
              const std::vector<BoundConstraint>& ics,
              const std::vector<AppliedUpdate>& updates, RepairProblem* problem,
              const Config& config, ThreadPool* pool) {
  ViolationEngineOptions options;
  options.num_threads = config.threads;
  options.pool = pool;
  return VerifyByDelta(repaired, ics, updates, options, problem);
}

bool FullRescan(const Database& db, const std::vector<BoundConstraint>& ics) {
  const Result<bool> consistent = ViolationEngine::Satisfies(db, ics);
  EXPECT_TRUE(consistent.ok()) << consistent.status().ToString();
  return consistent.ok() && consistent.value();
}

// The delta verdict and the full rescan's must agree; returns the verdict.
bool SameVerdict(const Database& repaired,
                 const std::vector<BoundConstraint>& ics,
                 const std::vector<AppliedUpdate>& updates,
                 RepairProblem* problem, const Config& config,
                 ThreadPool* pool, const std::string& what) {
  const Status delta = Verify(repaired, ics, updates, problem, config, pool);
  EXPECT_TRUE(delta.ok() || delta.code() == StatusCode::kInternal)
      << what << ": " << delta.ToString();
  EXPECT_EQ(delta.ok(), FullRescan(repaired, ics))
      << what << ": " << delta.ToString();
  return delta.ok();
}

std::vector<std::pair<std::string, GeneratedWorkload>> Workloads() {
  std::vector<std::pair<std::string, GeneratedWorkload>> out;
  out.emplace_back("paper-table", MakePaperTableExample());
  out.emplace_back("paper-pub", MakePaperPubExample());
  for (const char* name : {"zipf-hotspot", "sensor-drift", "adversary",
                           "client-buy", "census"}) {
    ScenarioSpec spec;
    spec.name = name;
    spec.rows = 600;
    spec.seed = 11;
    Result<GeneratedWorkload> w = GenerateScenario(spec);
    EXPECT_TRUE(w.ok()) << name << ": " << w.status().ToString();
    if (w.ok()) out.emplace_back(name, std::move(w).value());
  }
  return out;
}

TEST(VerifyOracleTest, DeltaVerifyMatchesFullRescan) {
  ThreadPool pool(4);
  for (const auto& [name, w] : Workloads()) {
    Result<std::vector<BoundConstraint>> ics = BindAll(w.db.schema(), w.ics);
    ASSERT_TRUE(ics.ok()) << name;
    for (const Config config : {Config{1, false}, Config{1, true},
                                Config{4, false}, Config{4, true}}) {
      ThreadPool* p = config.threads > 1 ? &pool : nullptr;
      const std::string what = name + " " + Describe(config);

      // The repair itself: consistent by both checks.
      Built built = Build(w.db, *ics, config, p);
      std::vector<AppliedUpdate> updates;
      Result<Database> repaired =
          ApplyCover(w.db, built.problem, built.cover, &updates);
      ASSERT_TRUE(repaired.ok()) << what;
      EXPECT_TRUE(SameVerdict(*repaired, *ics, updates, &built.problem,
                              config, p, what));
      if (updates.empty()) continue;  // already consistent

      // Mutation 1: revert one updated cell. Some revert brings a violation
      // back; the delta verify must see every one the rescan sees.
      bool reverted_inconsistent = false;
      for (size_t u = 0; u < updates.size() && u < 16; ++u) {
        Database mutated = repaired->Clone();
        const AppliedUpdate& update = updates[u];
        ASSERT_TRUE(mutated.mutable_table(update.tuple.relation)
                        .UpdateValue(update.tuple.row, update.attribute,
                                     Value::Int(update.old_value))
                        .ok());
        Built rebuilt = Build(w.db, *ics, config, p);
        if (!SameVerdict(mutated, *ics, updates, &rebuilt.problem, config, p,
                         what + " revert " + std::to_string(u))) {
          reverted_inconsistent = true;
        }
      }
      EXPECT_TRUE(reverted_inconsistent) << what;

      // Mutation 2: drop one set from the cover such that some violation
      // set is left with no updated member; the coverage check rejects it.
      bool coverage_tripped = false;
      for (size_t k = 0; k < built.cover.chosen.size() && !coverage_tripped;
           ++k) {
        Built rebuilt = Build(w.db, *ics, config, p);
        SetCoverSolution partial = rebuilt.cover;
        partial.chosen.erase(partial.chosen.begin() + static_cast<long>(k));
        std::vector<AppliedUpdate> partial_updates;
        Result<Database> under =
            ApplyCover(w.db, rebuilt.problem, partial, &partial_updates);
        ASSERT_TRUE(under.ok()) << what;
        const Status delta = Verify(*under, *ics, partial_updates,
                                    &rebuilt.problem, config, p);
        if (delta.ok()) continue;  // the dropped set was redundant
        EXPECT_FALSE(FullRescan(*under, *ics)) << what;
        if (delta.message().find("no updated member") != std::string::npos) {
          EXPECT_EQ(delta.code(), StatusCode::kInternal) << what;
          coverage_tripped = true;
        }
      }
      EXPECT_TRUE(coverage_tripped) << what;
    }
  }
}

std::shared_ptr<Schema> MakeRSchema() {
  auto schema = std::make_shared<Schema>();
  EXPECT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "R",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"A", Type::kInt64, true, 1.0}},
                      {"K"}))
                  .ok());
  return schema;
}

// ic1's only fix is a := 18, which creates an ic2 violation: the IC set is
// not local, and the pipeline must say so instead of returning the repair.
TEST(VerifyOracleTest, NonLocalRepairFailsVerify) {
  Database db(MakeRSchema());
  ASSERT_TRUE(db.Insert("R", {Value::Int(1), Value::Int(10)}).ok());
  ASSERT_TRUE(db.Insert("R", {Value::Int(2), Value::Int(30)}).ok());
  const auto ics = ParseConstraintSet(
      "ic1: :- R(k, a), a < 18\n"
      "ic2: :- R(k, a), a > 15\n");
  ASSERT_TRUE(ics.ok());
  for (const size_t threads : {1u, 4u}) {
    for (const bool columnar : {false, true}) {
      RepairOptions options;
      options.require_local = false;
      options.num_threads = threads;
      options.use_columnar_scan = columnar;
      const Result<RepairOutcome> outcome = RepairDatabase(db, *ics, options);
      EXPECT_EQ(outcome.status().code(), StatusCode::kInternal)
          << threads << "t columnar=" << columnar << ": "
          << outcome.status().ToString();
    }
  }
}

// ic2 joins R with itself on the flexible attribute A, which ic1's fixes
// update: rows 0 and 1 both become a = 18 and then violate ic2 together.
// The violation scan built a join index on R.A over the old values, where
// no two rows share an A; reused as is, it would hide the new violation.
TEST(VerifyOracleTest, JoinOnUpdatedAttributeDropsStaleIndex) {
  Database db(MakeRSchema());
  ASSERT_TRUE(db.Insert("R", {Value::Int(1), Value::Int(10)}).ok());
  ASSERT_TRUE(db.Insert("R", {Value::Int(2), Value::Int(12)}).ok());
  ASSERT_TRUE(db.Insert("R", {Value::Int(3), Value::Int(30)}).ok());
  ASSERT_TRUE(db.Insert("R", {Value::Int(4), Value::Int(40)}).ok());
  const auto parsed = ParseConstraintSet(
      "ic1: :- R(k, a), a < 18\n"
      "ic2: :- R(k, a), R(j, a), k != j\n");
  ASSERT_TRUE(parsed.ok());
  Result<std::vector<BoundConstraint>> ics = BindAll(db.schema(), *parsed);
  ASSERT_TRUE(ics.ok());
  ThreadPool pool(4);

  for (const Config config : {Config{1, false}, Config{1, true},
                              Config{4, false}, Config{4, true}}) {
    ThreadPool* p = config.threads > 1 ? &pool : nullptr;
    const std::string what = Describe(config);
    Built built = Build(db, *ics, config, p);
    ASSERT_EQ(built.problem.violations.size(), 2u) << what;
    ASSERT_GT(built.problem.join_indexes.size(), 0u) << what;
    std::vector<AppliedUpdate> updates;
    Result<Database> repaired =
        ApplyCover(db, built.problem, built.cover, &updates);
    ASSERT_TRUE(repaired.ok()) << what;
    ASSERT_EQ(updates.size(), 2u) << what;
    ASSERT_EQ(repaired->table(0).row(0).value(1), Value::Int(18)) << what;
    ASSERT_EQ(repaired->table(0).row(1).value(1), Value::Int(18)) << what;

    // The undropped cache really is stale: a scan that adopts it misses
    // the new violation set.
    {
      Built stale = Build(db, *ics, config, p);
      ViolationEngineOptions options;
      ColumnSnapshot snapshot;
      if (stale.problem.snapshot.valid()) {
        snapshot = stale.problem.snapshot.Patch(
            *repaired, {{TupleRef{0, 0}, 1}, {TupleRef{0, 1}, 1}});
        options.columnar = &snapshot;
      }
      ViolationEngine engine(*repaired, *ics, options);
      engine.AdoptIndexCache(std::move(stale.problem.join_indexes));
      const std::vector<std::vector<uint8_t>> dirty = {{1, 1, 0, 0}};
      const auto found = engine.FindViolationsTouching(dirty);
      ASSERT_TRUE(found.ok()) << what;
      EXPECT_TRUE(found->empty()) << what;
    }

    // The pipeline's verify drops it and agrees with the full rescan.
    const Status delta =
        Verify(*repaired, *ics, updates, &built.problem, config, p);
    EXPECT_EQ(delta.code(), StatusCode::kInternal) << what;
    EXPECT_NE(delta.message().find("still violates"), std::string::npos)
        << what << ": " << delta.ToString();
    EXPECT_FALSE(FullRescan(*repaired, *ics)) << what;
  }
}

}  // namespace
}  // namespace dbrepair
