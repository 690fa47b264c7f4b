#include "storage/column_view.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "catalog/schema.h"
#include "common/thread_pool.h"
#include "storage/database.h"
#include "storage/statistics.h"

namespace dbrepair {
namespace {

std::shared_ptr<Schema> MakeSchema() {
  auto schema = std::make_shared<Schema>();
  EXPECT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "T",
                      {AttributeDef{"K", Type::kInt64, false, 1.0},
                       AttributeDef{"S", Type::kString, false, 1.0},
                       AttributeDef{"D", Type::kDouble, false, 1.0},
                       AttributeDef{"A", Type::kInt64, true, 1.0}},
                      {"K"}))
                  .ok());
  EXPECT_TRUE(schema
                  ->AddRelation(RelationSchema(
                      "U",
                      {AttributeDef{"K2", Type::kInt64, false, 1.0},
                       AttributeDef{"S2", Type::kString, false, 1.0}},
                      {"K2"}))
                  .ok());
  return schema;
}

TEST(ColumnViewTest, BuildTypesAndValues) {
  Database db(MakeSchema());
  ASSERT_TRUE(db.Insert("T", {Value::Int(1), Value::String("x"),
                              Value::Double(2.5), Value::Int(7)})
                  .ok());
  ASSERT_TRUE(db.Insert("T", {Value::Int(2), Value::String("y"),
                              Value::Int(3), Value::Int(8)})
                  .ok());
  const ColumnSnapshot snap = ColumnSnapshot::Build(db);
  ASSERT_TRUE(snap.valid());
  ASSERT_EQ(snap.relation_count(), 2u);
  const RelationColumns& rel = snap.relation(0);
  ASSERT_EQ(rel.row_count, 2u);
  ASSERT_EQ(rel.columns.size(), 4u);
  EXPECT_EQ(rel.column(0).ints, (std::vector<int64_t>{1, 2}));
  // An int Value in a kDouble column is stored as its exact double image.
  EXPECT_EQ(rel.column(2).doubles, (std::vector<double>{2.5, 3.0}));
  EXPECT_TRUE(rel.column(2).clean());
  // Distinct strings get distinct non-null codes.
  const ColumnData& s = rel.column(1);
  EXPECT_NE(s.codes[0], s.codes[1]);
  EXPECT_NE(s.codes[0], StringInterner::kNullCode);
}

TEST(ColumnViewTest, InterningSharesCodesAcrossColumnsAndRelations) {
  Database db(MakeSchema());
  ASSERT_TRUE(db.Insert("T", {Value::Int(1), Value::String("shared"),
                              Value::Double(0.0), Value::Int(0)})
                  .ok());
  ASSERT_TRUE(db.Insert("U", {Value::Int(1), Value::String("shared")}).ok());
  ASSERT_TRUE(db.Insert("U", {Value::Int(2), Value::String("only-u")}).ok());
  const ColumnSnapshot snap = ColumnSnapshot::Build(db);
  // One dictionary per snapshot: equal strings share one code everywhere,
  // so cross-relation string joins compare codes directly.
  EXPECT_EQ(snap.relation(0).column(1).codes[0],
            snap.relation(1).column(1).codes[0]);
  EXPECT_NE(snap.relation(1).column(1).codes[0],
            snap.relation(1).column(1).codes[1]);
  EXPECT_EQ(snap.interner().Find("shared"),
            snap.relation(0).column(1).codes[0]);
  EXPECT_EQ(snap.interner().Find("absent"), StringInterner::kNullCode);
}

TEST(ColumnViewTest, NullsAndLossyValuesMarkColumnsUnclean) {
  Database db(MakeSchema());
  ASSERT_TRUE(db.Insert("T", {Value::Int(1), Value(),
                              Value::Double(std::nan("")), Value::Int(0)})
                  .ok());
  // An int beyond 2^53 in a DOUBLE column has no exact double image.
  ASSERT_TRUE(db.Insert("T", {Value::Int(2), Value::String("s"),
                              Value::Int(kColumnarExactIntBound + 1),
                              Value::Int(1)})
                  .ok());
  const ColumnSnapshot snap = ColumnSnapshot::Build(db);
  const RelationColumns& rel = snap.relation(0);
  EXPECT_TRUE(rel.column(0).clean());
  EXPECT_TRUE(rel.column(1).has_nulls);
  EXPECT_FALSE(rel.column(1).clean());
  EXPECT_TRUE(rel.column(2).lossy);
  EXPECT_FALSE(rel.column(2).clean());
  EXPECT_EQ(rel.column(1).codes[0], StringInterner::kNullCode);
}

TEST(ColumnViewTest, KeyCodeEqualityMatchesValueEquality) {
  Database db(MakeSchema());
  ASSERT_TRUE(db.Insert("T", {Value::Int(1), Value::String("a"),
                              Value::Double(-0.0), Value::Int(0)})
                  .ok());
  ASSERT_TRUE(db.Insert("T", {Value::Int(2), Value::String("a"),
                              Value::Int(0), Value::Int(0)})
                  .ok());
  const ColumnSnapshot snap = ColumnSnapshot::Build(db);
  const RelationColumns& rel = snap.relation(0);
  // -0.0 is normalised at build time, so the code matches int 0's double
  // image — KeyCode equality tracks Value equality on clean columns.
  EXPECT_EQ(rel.column(2).KeyCode(0), rel.column(2).KeyCode(1));
  EXPECT_EQ(rel.column(1).KeyCode(0), rel.column(1).KeyCode(1));
  EXPECT_NE(rel.column(0).KeyCode(0), rel.column(0).KeyCode(1));
}

TEST(ColumnViewTest, ParallelBuildMatchesSerial) {
  Database db(MakeSchema());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db.Insert("T", {Value::Int(i),
                                Value::String("s" + std::to_string(i % 17)),
                                Value::Double(i / 3.0), Value::Int(i % 5)})
                    .ok());
  }
  const ColumnSnapshot serial = ColumnSnapshot::Build(db);
  ThreadPool pool(4);
  const ColumnSnapshot parallel = ColumnSnapshot::Build(db, &pool);
  for (uint32_t r = 0; r < serial.relation_count(); ++r) {
    const RelationColumns& a = serial.relation(r);
    const RelationColumns& b = parallel.relation(r);
    ASSERT_EQ(a.row_count, b.row_count);
    for (size_t c = 0; c < a.columns.size(); ++c) {
      EXPECT_EQ(a.column(c).ints, b.column(c).ints);
      EXPECT_EQ(a.column(c).doubles, b.column(c).doubles);
      // The interning pass is serial in both builds, so even dictionary
      // codes are identical, not merely consistent.
      EXPECT_EQ(a.column(c).codes, b.column(c).codes);
    }
  }
}

TEST(ColumnViewTest, RebaseRebuildsOnlyDirtyRelations) {
  Database db(MakeSchema());
  ASSERT_TRUE(db.Insert("T", {Value::Int(1), Value::String("a"),
                              Value::Double(1.0), Value::Int(10)})
                  .ok());
  ASSERT_TRUE(db.Insert("U", {Value::Int(1), Value::String("b")}).ok());
  const ColumnSnapshot base = ColumnSnapshot::Build(db);

  // Mutate relation T only (the repair pipeline's in-place update).
  ASSERT_TRUE(db.mutable_table(0).UpdateValue(0, 3, Value::Int(99)).ok());
  const ColumnSnapshot rebased = base.Rebase(db, {0});

  // The dirty relation reflects the update; the clean relation's column
  // storage is shared with the base snapshot, not copied.
  EXPECT_EQ(rebased.relation(0).column(3).ints[0], 99);
  EXPECT_EQ(&rebased.relation(1), &base.relation(1));
  // New strings appearing in the dirty relation extend the shared
  // dictionary without disturbing existing codes.
  ASSERT_TRUE(db.mutable_table(0)
                  .UpdateValue(0, 1, Value::String("fresh"))
                  .ok());
  const ColumnSnapshot again = rebased.Rebase(db, {0});
  EXPECT_NE(again.relation(0).column(1).codes[0],
            StringInterner::kNullCode);
  EXPECT_EQ(again.interner().Find("b"), base.interner().Find("b"));
}

TEST(ColumnViewTest, PatchCopiesOnlyUpdatedColumns) {
  Database db(MakeSchema());
  for (int64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(db.Insert("T", {Value::Int(k), Value::String("a"),
                                Value::Double(1.0), Value::Int(10 + k)})
                    .ok());
  }
  ASSERT_TRUE(db.Insert("U", {Value::Int(1), Value::String("b")}).ok());
  const ColumnSnapshot base = ColumnSnapshot::Build(db);

  Database repaired = db.Clone();
  ASSERT_TRUE(repaired.mutable_table(0).UpdateValue(1, 3, Value::Int(99)).ok());
  ASSERT_TRUE(
      repaired.mutable_table(0).UpdateValue(2, 1, Value::String("new")).ok());
  const ColumnSnapshot patched =
      base.Patch(repaired, {{TupleRef{0, 1}, 3}, {TupleRef{0, 2}, 1}});

  // Same columns as a rebuild of the dirty relation over the shared
  // dictionary; untouched columns and relations are shared, not copied.
  const ColumnSnapshot rebased = base.Rebase(repaired, {0});
  for (size_t c = 0; c < 4; ++c) {
    const ColumnData& a = patched.relation(0).column(c);
    const ColumnData& b = rebased.relation(0).column(c);
    EXPECT_EQ(a.ints, b.ints) << c;
    EXPECT_EQ(a.doubles, b.doubles) << c;
    EXPECT_EQ(a.codes, b.codes) << c;
    EXPECT_EQ(a.clean(), b.clean()) << c;
  }
  EXPECT_EQ(&patched.relation(0).column(0), &base.relation(0).column(0));
  EXPECT_EQ(&patched.relation(0).column(2), &base.relation(0).column(2));
  EXPECT_NE(&patched.relation(0).column(3), &base.relation(0).column(3));
  EXPECT_EQ(&patched.relation(1), &base.relation(1));
  EXPECT_EQ(base.relation(0).column(3).ints[1], 11);  // source untouched

  // Flags are conservative: a NULL raises has_nulls, and overwriting the
  // NULL later does not lower it.
  ASSERT_TRUE(repaired.mutable_table(0).UpdateValue(0, 3, Value()).ok());
  const ColumnSnapshot with_null =
      patched.Patch(repaired, {{TupleRef{0, 0}, 3}});
  EXPECT_TRUE(with_null.relation(0).column(3).has_nulls);
  EXPECT_FALSE(patched.relation(0).column(3).has_nulls);
  ASSERT_TRUE(repaired.mutable_table(0).UpdateValue(0, 3, Value::Int(5)).ok());
  const ColumnSnapshot cleared =
      with_null.Patch(repaired, {{TupleRef{0, 0}, 3}});
  EXPECT_EQ(cleared.relation(0).column(3).ints[0], 5);
  EXPECT_TRUE(cleared.relation(0).column(3).has_nulls);
}

TEST(ColumnViewTest, ColumnStatsMatchRowStatsOnExactFields) {
  Database db(MakeSchema());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.Insert("T", {Value::Int(i),
                                Value::String("s" + std::to_string(i % 7)),
                                Value::Double(i * 0.5), Value::Int(i % 3)})
                    .ok());
  }
  const ColumnSnapshot snap = ColumnSnapshot::Build(db);
  const TableStats row = ComputeTableStats(db.table(0));
  const TableStats col = ComputeColumnStats(snap.relation(0));
  ASSERT_EQ(col.row_count, row.row_count);
  ASSERT_EQ(col.columns.size(), row.columns.size());
  for (size_t c = 0; c < col.columns.size(); ++c) {
    EXPECT_EQ(col.columns[c].non_null, row.columns[c].non_null) << c;
    EXPECT_EQ(col.columns[c].has_range, row.columns[c].has_range) << c;
    if (row.columns[c].has_range) {
      // Min/max are exact in both paths; distinct counts are estimates in
      // the columnar path and are only sanity-bounded here.
      EXPECT_EQ(col.columns[c].min, row.columns[c].min) << c;
      EXPECT_EQ(col.columns[c].max, row.columns[c].max) << c;
    }
    EXPECT_GE(col.columns[c].distinct, 1u) << c;
    EXPECT_LE(col.columns[c].distinct, col.row_count) << c;
  }
}

}  // namespace
}  // namespace dbrepair
