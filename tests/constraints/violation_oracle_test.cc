// Property tests: the ViolationEngine (greedy join order, hash indexes,
// merged equality classes, minimality filter) must agree with a brute-force
// oracle that tries every assignment of tuples to atoms — on the row path
// and on the columnar path, serial and sharded. Also home of the
// max_violation_sets cap tests, which run at 1 and 4 threads too.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "constraints/parser.h"
#include "constraints/violation_engine.h"
#include "obs/context.h"
#include "storage/column_view.h"
#include "storage/database.h"

namespace dbrepair {
namespace {

// ---- The oracle. ----

bool OracleBuiltinHolds(const BoundBuiltin& b,
                        const std::vector<const Value*>& binding) {
  const Value* lhs = binding[b.lhs_var];
  const Value* rhs = b.rhs_is_var ? binding[b.rhs_var] : &b.rhs_const;
  return EvalCompare(*lhs, b.op, *rhs);
}

// Enumerates every assignment of db tuples to ic's atoms; returns the
// distinct tuple sets of the satisfying ones (not yet minimal).
std::set<std::vector<TupleRef>> OracleRawSets(const Database& db,
                                              const BoundConstraint& ic) {
  std::set<std::vector<TupleRef>> out;
  std::vector<const Value*> binding(ic.var_names.size(), nullptr);
  std::vector<TupleRef> current(ic.atoms.size());

  auto recurse = [&](auto&& self, size_t atom_index) -> void {
    if (atom_index == ic.atoms.size()) {
      for (const BoundBuiltin& b : ic.builtins) {
        if (!OracleBuiltinHolds(b, binding)) return;
      }
      std::vector<TupleRef> canonical = current;
      std::sort(canonical.begin(), canonical.end());
      canonical.erase(std::unique(canonical.begin(), canonical.end()),
                      canonical.end());
      out.insert(std::move(canonical));
      return;
    }
    const BoundAtom& atom = ic.atoms[atom_index];
    const Table& table = db.table(atom.relation_index);
    for (uint32_t row = 0; row < table.size(); ++row) {
      const Tuple& tuple = table.row(row);
      bool ok = true;
      std::vector<int32_t> bound_here;
      for (uint32_t pos = 0; pos < atom.var_ids.size() && ok; ++pos) {
        const int32_t vid = atom.var_ids[pos];
        if (vid < 0) {
          ok = tuple.value(pos) == atom.constants[pos];
        } else if (binding[vid] != nullptr) {
          ok = tuple.value(pos) == *binding[vid];
        } else {
          binding[vid] = &tuple.value(pos);
          bound_here.push_back(vid);
        }
      }
      if (ok) {
        current[atom_index] = TupleRef{atom.relation_index, row};
        self(self, atom_index + 1);
      }
      for (const int32_t vid : bound_here) binding[vid] = nullptr;
    }
  };
  recurse(recurse, 0);
  return out;
}

// Keeps only the inclusion-minimal sets.
std::set<std::vector<TupleRef>> Minimalise(
    const std::set<std::vector<TupleRef>>& sets) {
  std::set<std::vector<TupleRef>> out;
  for (const auto& candidate : sets) {
    bool minimal = true;
    for (const auto& other : sets) {
      if (other.size() >= candidate.size() || other == candidate) continue;
      if (std::includes(candidate.begin(), candidate.end(), other.begin(),
                        other.end())) {
        minimal = false;
        break;
      }
    }
    if (minimal) out.insert(candidate);
  }
  return out;
}

// ---- Random workload generation. ----

std::shared_ptr<const Schema> OracleSchema() {
  auto schema = std::make_shared<Schema>();
  Status st = schema->AddRelation(RelationSchema(
      "R",
      {AttributeDef{"K", Type::kInt64, false, 1.0},
       AttributeDef{"X", Type::kInt64, true, 1.0},
       AttributeDef{"Y", Type::kInt64, false, 1.0}},
      {"K"}));
  EXPECT_TRUE(st.ok());
  st = schema->AddRelation(RelationSchema(
      "S",
      {AttributeDef{"K", Type::kInt64, false, 1.0},
       AttributeDef{"Z", Type::kInt64, true, 1.0}},
      {"K"}));
  EXPECT_TRUE(st.ok());
  return schema;
}

Database RandomDb(const std::shared_ptr<const Schema>& schema, Rng* rng,
                  size_t rows) {
  Database db(schema);
  for (size_t i = 0; i < rows; ++i) {
    // Small value domain to force joins and collisions.
    auto r = db.Insert("R", {Value::Int(static_cast<int64_t>(i)),
                             Value::Int(rng->UniformInRange(0, 6)),
                             Value::Int(rng->UniformInRange(0, 6))});
    EXPECT_TRUE(r.ok());
  }
  for (size_t i = 0; i < rows; ++i) {
    auto r = db.Insert("S", {Value::Int(static_cast<int64_t>(i)),
                             Value::Int(rng->UniformInRange(0, 6))});
    EXPECT_TRUE(r.ok());
  }
  return db;
}

// A pool of structurally diverse constraints over the oracle schema.
const std::vector<std::string>& ConstraintPool() {
  static const std::vector<std::string>* pool =
      new std::vector<std::string>{
          ":- R(k, x, y), x > 3",
          ":- R(k, x, y), x > 1, y < 4",
          ":- R(k, x, y), S(k, z), x > 2, z < 3",
          ":- R(k, x, y), S(k2, z), y = z, x > 2",
          ":- R(k1, x1, y), R(k2, x2, y), k1 != k2, x1 > 3, x2 > 3",
          ":- R(k, x, y), S(k2, z), k != k2, x > 4, z < 2",
          ":- R(k, x, 3), x > 1",
          ":- R(k1, x, y1), R(k2, x2, y2), y1 = y2, x > 3, x2 > 3",
          ":- S(k, z), z > 4",
          ":- R(k, x, y), S(k, z), y != z, x > 3",
      };
  return *pool;
}

class OracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleTest, EngineMatchesBruteForce) {
  Rng rng(GetParam());
  const auto schema = OracleSchema();
  Database db = RandomDb(schema, &rng, 12);

  // Pick 3 random constraints from the pool.
  std::vector<DenialConstraint> ics;
  for (int i = 0; i < 3; ++i) {
    const auto& text =
        ConstraintPool()[rng.Uniform(ConstraintPool().size())];
    auto ic = ParseConstraint(text);
    ASSERT_TRUE(ic.ok()) << text;
    ics.push_back(std::move(*ic));
  }
  auto bound = BindAll(*schema, ics);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();

  ViolationEngine engine(db, *bound);
  auto engine_result = engine.FindViolations();
  ASSERT_TRUE(engine_result.ok()) << engine_result.status().ToString();

  for (const BoundConstraint& ic : *bound) {
    const std::set<std::vector<TupleRef>> expected =
        Minimalise(OracleRawSets(db, ic));
    std::set<std::vector<TupleRef>> actual;
    for (const ViolationSet& v : *engine_result) {
      if (v.ic_index == ic.ic_index) actual.insert(v.tuples);
    }
    EXPECT_EQ(actual, expected)
        << "constraint " << ic.name << " (ic_index " << ic.ic_index << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleTest,
                         ::testing::Range<uint64_t>(1, 25));

// Three-atom constraints: their records are wider than two ids, and because
// one R tuple may fill both R atoms they also yield 2-tuple sets, so the
// minimality filter compares records of different sizes.
const std::vector<std::string>& ThreeAtomPool() {
  static const std::vector<std::string>* pool = new std::vector<std::string>{
      ":- R(k1, x1, y), R(k2, x2, y), S(k3, x1), x2 > 3",
      ":- R(k1, x1, y1), R(k2, x2, y2), S(k3, z), y1 = z, y2 = z, x1 > 2, "
      "x2 > 2",
  };
  return *pool;
}

std::vector<std::string> Render(const std::vector<ViolationSet>& sets) {
  std::vector<std::string> out;
  for (const ViolationSet& v : sets) out.push_back(v.ToString());
  return out;
}

class ColumnarOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColumnarOracleTest, ColumnarEngineMatchesBruteForceInOrder) {
  Rng rng(GetParam());
  const auto schema = OracleSchema();
  Database db = RandomDb(schema, &rng, 12);

  std::vector<DenialConstraint> ics;
  std::vector<std::string> texts = {
      ThreeAtomPool()[rng.Uniform(ThreeAtomPool().size())]};
  for (int i = 0; i < 2; ++i) {
    texts.push_back(ConstraintPool()[rng.Uniform(ConstraintPool().size())]);
  }
  for (const std::string& text : texts) {
    auto ic = ParseConstraint(text);
    ASSERT_TRUE(ic.ok()) << text;
    ics.push_back(std::move(*ic));
  }
  auto bound = BindAll(*schema, ics);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();

  // The engine's order: by constraint, then by the sorted tuple vector —
  // the order std::set already iterates in.
  std::vector<ViolationSet> expected;
  for (const BoundConstraint& ic : *bound) {
    for (const std::vector<TupleRef>& tuples :
         Minimalise(OracleRawSets(db, ic))) {
      expected.push_back(ViolationSet{ic.ic_index, tuples});
    }
  }

  const ColumnSnapshot snapshot = ColumnSnapshot::Build(db);
  obs::Counter* columnar_plans =
      obs::CurrentObs().metrics.GetCounter("scan.columnar.plans");
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    ViolationEngineOptions options;
    options.columnar = &snapshot;
    options.num_threads = threads;
    const uint64_t plans_before = columnar_plans->value();
    ViolationEngine engine(db, *bound, options);
    auto result = engine.FindViolations();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(columnar_plans->value() - plans_before, bound->size())
        << "a constraint fell back to the row path";
    EXPECT_EQ(Render(*result), Render(expected)) << "threads " << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarOracleTest,
                         ::testing::Range<uint64_t>(1, 25));

TEST(WideConstraintOracleTest, FiveAtomRecordsMatchBruteForce) {
  // Five atoms: records wider than the fixed-width sort paths, with sets of
  // every size from 2 to 5 since atoms may share tuples.
  Rng rng(17);
  const auto schema = OracleSchema();
  Database db = RandomDb(schema, &rng, 6);
  auto ic = ParseConstraint(
      ":- R(k1, x1, y), R(k2, x2, y), S(k3, x1), S(k4, x2), R(k5, x5, y), "
      "x5 > 3");
  ASSERT_TRUE(ic.ok());
  auto bound = BindAll(*schema, {*ic});
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  std::vector<ViolationSet> expected;
  for (const std::vector<TupleRef>& tuples :
       Minimalise(OracleRawSets(db, bound->front()))) {
    expected.push_back(ViolationSet{0, tuples});
  }
  ASSERT_FALSE(expected.empty());

  const ColumnSnapshot snapshot = ColumnSnapshot::Build(db);
  for (const bool columnar : {false, true}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      ViolationEngineOptions options;
      options.columnar = columnar ? &snapshot : nullptr;
      options.num_threads = threads;
      ViolationEngine engine(db, *bound, options);
      auto result = engine.FindViolations();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(Render(*result), Render(expected))
          << "threads " << threads << (columnar ? " columnar" : " row");
    }
  }
}

// ---- max_violation_sets counts distinct sets, not assignments. ----

// n tuples with x > 5 under :- R(k1, x), R(k2, y), x > 5, y > 5: every
// tuple t is a set by itself (assignment (t, t)) and every pair {t, t'} is
// produced by the two assignments (t, t') and (t', t). The pairs are not
// minimal, but the cap counts them: n + n(n-1)/2 distinct sets out of n^2
// assignments.
class ViolationCapTest : public ::testing::TestWithParam<bool> {};

TEST_P(ViolationCapTest, CapCountsDistinctSetsNotAssignments) {
  const bool columnar = GetParam();
  auto schema = std::make_shared<Schema>();
  ASSERT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "R",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"X", Type::kInt64, true, 1.0}},
                      {"K"}))
                  .ok());
  Database db(schema);
  constexpr size_t kTuples = 40;
  for (size_t i = 0; i < kTuples; ++i) {
    ASSERT_TRUE(db.Insert("R", {Value::Int(static_cast<int64_t>(i)),
                                Value::Int(10)})
                    .ok());
  }
  auto ics = ParseConstraintSet(":- R(k1, x), R(k2, y), x > 5, y > 5\n");
  ASSERT_TRUE(ics.ok());
  auto bound = BindAll(*schema, *ics);
  ASSERT_TRUE(bound.ok());
  const ColumnSnapshot snapshot = ColumnSnapshot::Build(db);

  constexpr size_t kDistinct = kTuples + kTuples * (kTuples - 1) / 2;
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads) +
                 (columnar ? " columnar" : " row"));
    ViolationEngineOptions options;
    options.num_threads = threads;
    options.columnar = columnar ? &snapshot : nullptr;
    options.max_violation_sets = kDistinct;
    ViolationEngine at_cap(db, *bound, options);
    auto found = at_cap.FindViolations();
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(found->size(), kTuples);  // the singletons

    options.max_violation_sets = kDistinct - 1;
    ViolationEngine below_cap(db, *bound, options);
    EXPECT_EQ(below_cap.FindViolations().status().code(),
              StatusCode::kResourceExhausted);
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, ViolationCapTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Columnar"
                                                          : "Row");
                         });

}  // namespace
}  // namespace dbrepair
