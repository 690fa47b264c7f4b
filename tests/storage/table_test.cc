#include "storage/table.h"

#include <gtest/gtest.h>

#include <string>

namespace dbrepair {
namespace {

class TableTest : public ::testing::Test {
 protected:
  TableTest()
      : schema_("Client",
                {AttributeDef{"ID", Type::kInt64, false, 1.0},
                 AttributeDef{"A", Type::kInt64, true, 1.0},
                 AttributeDef{"C", Type::kInt64, true, 1.0}},
                {"ID"}),
        table_(&schema_) {}

  RelationSchema schema_;
  Table table_;
};

TEST_F(TableTest, InsertAndRead) {
  const auto row = table_.Insert(
      Tuple({Value::Int(1), Value::Int(20), Value::Int(30)}));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value(), 0u);
  EXPECT_EQ(table_.size(), 1u);
  EXPECT_EQ(table_.row(0).value(1), Value::Int(20));
}

TEST_F(TableTest, RejectsArityMismatch) {
  EXPECT_FALSE(table_.Insert(Tuple({Value::Int(1)})).ok());
}

TEST_F(TableTest, RejectsTypeMismatch) {
  const auto res = table_.Insert(
      Tuple({Value::String("x"), Value::Int(1), Value::Int(2)}));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(TableTest, AllowsNulls) {
  EXPECT_TRUE(
      table_.Insert(Tuple({Value::Int(1), Value(), Value::Int(2)})).ok());
}

TEST_F(TableTest, RejectsDuplicateKey) {
  ASSERT_TRUE(table_
                  .Insert(Tuple({Value::Int(1), Value::Int(2),
                                 Value::Int(3)}))
                  .ok());
  const auto res =
      table_.Insert(Tuple({Value::Int(1), Value::Int(9), Value::Int(9)}));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kKeyViolation);
}

TEST_F(TableTest, LookupByKey) {
  ASSERT_TRUE(table_
                  .Insert(Tuple({Value::Int(7), Value::Int(2),
                                 Value::Int(3)}))
                  .ok());
  EXPECT_EQ(table_.LookupByKey({Value::Int(7)}).value(), 0u);
  EXPECT_EQ(table_.LookupByKey({Value::Int(8)}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(TableTest, UpdateFlexibleValue) {
  ASSERT_TRUE(table_
                  .Insert(Tuple({Value::Int(1), Value::Int(2),
                                 Value::Int(3)}))
                  .ok());
  ASSERT_TRUE(table_.UpdateValue(0, 1, Value::Int(99)).ok());
  EXPECT_EQ(table_.row(0).value(1), Value::Int(99));
}

TEST_F(TableTest, UpdateRejectsKeyAttribute) {
  ASSERT_TRUE(table_
                  .Insert(Tuple({Value::Int(1), Value::Int(2),
                                 Value::Int(3)}))
                  .ok());
  EXPECT_FALSE(table_.UpdateValue(0, 0, Value::Int(5)).ok());
}

TEST_F(TableTest, UpdateRejectsOutOfRange) {
  EXPECT_EQ(table_.UpdateValue(3, 1, Value::Int(5)).code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(table_
                  .Insert(Tuple({Value::Int(1), Value::Int(2),
                                 Value::Int(3)}))
                  .ok());
  EXPECT_EQ(table_.UpdateValue(0, 9, Value::Int(5)).code(),
            StatusCode::kOutOfRange);
}

TEST(CompositeKeyTableTest, CompositeKeyUniqueness) {
  RelationSchema schema("Buy",
                        {AttributeDef{"ID", Type::kInt64, false, 1.0},
                         AttributeDef{"I", Type::kInt64, false, 1.0},
                         AttributeDef{"P", Type::kInt64, true, 1.0}},
                        {"ID", "I"});
  Table table(&schema);
  EXPECT_TRUE(
      table.Insert(Tuple({Value::Int(1), Value::Int(1), Value::Int(5)}))
          .ok());
  EXPECT_TRUE(
      table.Insert(Tuple({Value::Int(1), Value::Int(2), Value::Int(5)}))
          .ok());
  EXPECT_FALSE(
      table.Insert(Tuple({Value::Int(1), Value::Int(1), Value::Int(9)}))
          .ok());
  EXPECT_EQ(table.LookupByKey({Value::Int(1), Value::Int(2)}).value(), 1u);
}

// The primary-key index is a flat open-addressing table that doubles at
// load factor 1/2; these cases run it through many resizes and key shapes.

TEST_F(TableTest, KeyIndexSurvivesManyResizes) {
  constexpr int64_t kKeys = 100000;  // 16 -> 262144 slots: 14 doublings
  for (int64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(table_.Insert(Tuple({Value::Int(k * 7 + 3), Value::Int(k),
                                   Value::Int(0)}))
                  .value(),
              static_cast<size_t>(k));
  }
  for (int64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(table_.LookupByKey({Value::Int(k * 7 + 3)}).value(),
              static_cast<size_t>(k))
        << k;
  }
  for (const int64_t absent : {int64_t{0}, int64_t{1}, int64_t{4},
                               kKeys * 7 + 3, int64_t{-3}}) {
    EXPECT_EQ(table_.LookupByKey({Value::Int(absent)}).status().code(),
              StatusCode::kNotFound)
        << absent;
  }
  // Duplicates are still caught after the growth, and do not insert.
  for (const int64_t k : {int64_t{0}, kKeys / 2, kKeys - 1}) {
    const auto dup = table_.Insert(
        Tuple({Value::Int(k * 7 + 3), Value::Int(1), Value::Int(1)}));
    ASSERT_FALSE(dup.ok());
    EXPECT_EQ(dup.status().code(), StatusCode::kKeyViolation);
  }
  EXPECT_EQ(table_.size(), static_cast<size_t>(kKeys));
}

TEST_F(TableTest, KeyIndexSpreadsStridedKeys) {
  // Ints hash to themselves; keys 2^20 apart must not share a home slot.
  constexpr int64_t kStride = int64_t{1} << 20;
  for (int64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(table_
                    .Insert(Tuple({Value::Int(k * kStride), Value::Int(k),
                                   Value::Int(0)}))
                    .ok());
  }
  for (int64_t k = 0; k < 5000; ++k) {
    ASSERT_EQ(table_.LookupByKey({Value::Int(k * kStride)}).value(),
              static_cast<size_t>(k));
  }
  EXPECT_FALSE(table_.LookupByKey({Value::Int(kStride / 2)}).ok());
  EXPECT_FALSE(table_.LookupByKey({Value::Int(5000 * kStride)}).ok());
}

TEST_F(TableTest, KeyIndexMatchesIntegralDoubles) {
  ASSERT_TRUE(
      table_.Insert(Tuple({Value::Int(3), Value::Int(1), Value::Int(2)})).ok());
  EXPECT_EQ(table_.LookupByKey({Value::Double(3.0)}).value(), 0u);
  EXPECT_FALSE(table_.LookupByKey({Value::Double(3.5)}).ok());
  // The wrong arity never matches.
  EXPECT_FALSE(table_.LookupByKey({}).ok());
  EXPECT_FALSE(table_.LookupByKey({Value::Int(3), Value::Int(1)}).ok());
}

TEST(KeyIndexTest, DoubleKeyColumnTreatsIntAndDoubleAlike) {
  RelationSchema schema("M",
                        {AttributeDef{"K", Type::kDouble, false, 1.0},
                         AttributeDef{"V", Type::kInt64, true, 1.0}},
                        {"K"});
  Table table(&schema);
  ASSERT_TRUE(table.Insert(Tuple({Value::Int(4), Value::Int(0)})).ok());
  ASSERT_TRUE(table.Insert(Tuple({Value::Double(2.5), Value::Int(0)})).ok());
  EXPECT_EQ(table.LookupByKey({Value::Double(4.0)}).value(), 0u);
  EXPECT_EQ(table.LookupByKey({Value::Int(4)}).value(), 0u);
  EXPECT_EQ(table.LookupByKey({Value::Double(2.5)}).value(), 1u);
  // 4.0 duplicates the int 4 already stored.
  const auto dup = table.Insert(Tuple({Value::Double(4.0), Value::Int(1)}));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kKeyViolation);
}

TEST(KeyIndexTest, CompositeStringAndNullKeys) {
  RelationSchema schema("S",
                        {AttributeDef{"A", Type::kString, false, 1.0},
                         AttributeDef{"B", Type::kInt64, false, 1.0},
                         AttributeDef{"V", Type::kInt64, true, 1.0}},
                        {"A", "B"});
  Table table(&schema);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(table
                    .Insert(Tuple({Value::String("k" + std::to_string(i % 50)),
                                   Value::Int(i / 50), Value::Int(i)}))
                    .ok())
        << i;
  }
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(table
                  .LookupByKey({Value::String("k" + std::to_string(i % 50)),
                                Value::Int(i / 50)})
                  .value(),
              static_cast<size_t>(i));
  }
  // Same parts, other column: not a key of the table.
  EXPECT_FALSE(table.LookupByKey({Value::String("k1"), Value::Int(40)}).ok());
  EXPECT_FALSE(table.LookupByKey({Value::String("k50"), Value::Int(0)}).ok());
  EXPECT_FALSE(
      table.Insert(Tuple({Value::String("k7"), Value::Int(3), Value::Int(0)}))
          .ok());

  // NULL key parts compare equal to NULL (Value::operator==), so they index
  // like any other value: found by NULL, and a second NULL is a duplicate.
  const size_t null_row =
      table.Insert(Tuple({Value(), Value::Int(0), Value::Int(0)})).value();
  const size_t both_null =
      table.Insert(Tuple({Value(), Value(), Value::Int(0)})).value();
  EXPECT_EQ(table.LookupByKey({Value(), Value::Int(0)}).value(), null_row);
  EXPECT_EQ(table.LookupByKey({Value(), Value()}).value(), both_null);
  EXPECT_FALSE(table.LookupByKey({Value::String(""), Value()}).ok());
  const auto dup = table.Insert(Tuple({Value(), Value(), Value::Int(9)}));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kKeyViolation);
}

TEST_F(TableTest, CloneCopiesRowsAndKeyIndexOnly) {
  for (int64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(
        table_.Insert(Tuple({Value::Int(k), Value::Int(k), Value::Int(0)}))
            .ok());
  }
  ASSERT_TRUE(table_.CreateOrderedIndex(1).ok());
  Table copy = table_.Clone();
  EXPECT_EQ(copy.size(), table_.size());
  EXPECT_EQ(copy.FindOrderedIndex(1), nullptr);
  for (int64_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(copy.row(k) == table_.row(k));
    ASSERT_EQ(copy.LookupByKey({Value::Int(k)}).value(),
              static_cast<size_t>(k));
  }
  // Growing the copy past its next resize leaves the original untouched.
  for (int64_t k = 1000; k < 5000; ++k) {
    ASSERT_TRUE(
        copy.Insert(Tuple({Value::Int(k), Value::Int(k), Value::Int(0)})).ok());
  }
  EXPECT_EQ(table_.size(), 1000u);
  EXPECT_FALSE(table_.LookupByKey({Value::Int(4000)}).ok());
  EXPECT_EQ(copy.LookupByKey({Value::Int(4000)}).value(), 4000u);
  EXPECT_NE(table_.FindOrderedIndex(1), nullptr);
}

TEST_F(TableTest, CloneSharesChunksUntilWritten) {
  const size_t n = 5 * Table::kChunkRows + 3;  // a partial last chunk
  for (size_t k = 0; k < n; ++k) {
    ASSERT_TRUE(table_
                    .Insert(Tuple({Value::Int(static_cast<int64_t>(k)),
                                   Value::Int(1), Value::Int(2)}))
                    .ok());
  }
  const size_t chunks = (n + Table::kChunkRows - 1) / Table::kChunkRows;
  EXPECT_EQ(table_.SharedChunks(), 0u);
  Table copy = table_.Clone();
  EXPECT_EQ(copy.SharedChunks(), chunks);

  // Two updates in one chunk copy that chunk once; the source keeps its
  // values and still shares every other chunk.
  const size_t row = 2 * Table::kChunkRows + 1;
  ASSERT_TRUE(copy.UpdateValue(row, 1, Value::Int(50)).ok());
  ASSERT_TRUE(copy.UpdateValue(row + 1, 2, Value::Int(60)).ok());
  EXPECT_EQ(copy.SharedChunks(), chunks - 1);
  EXPECT_EQ(table_.SharedChunks(), chunks - 1);
  EXPECT_EQ(copy.row(row).value(1), Value::Int(50));
  EXPECT_EQ(copy.row(row + 1).value(2), Value::Int(60));
  EXPECT_EQ(table_.row(row).value(1), Value::Int(1));
  EXPECT_EQ(table_.row(row + 1).value(2), Value::Int(2));

  // Appending to the copy fills its own copy of the shared last chunk.
  ASSERT_TRUE(copy.Insert(Tuple({Value::Int(-1), Value::Int(0),
                                 Value::Int(0)}))
                  .ok());
  EXPECT_EQ(copy.size(), n + 1);
  EXPECT_EQ(table_.size(), n);
  EXPECT_EQ(copy.SharedChunks(), chunks - 2);
  EXPECT_FALSE(table_.LookupByKey({Value::Int(-1)}).ok());
  EXPECT_EQ(copy.LookupByKey({Value::Int(-1)}).value(), n);

  // Writing the source after the copy diverged leaves the copy alone.
  ASSERT_TRUE(table_.UpdateValue(0, 1, Value::Int(7)).ok());
  EXPECT_EQ(copy.row(0).value(1), Value::Int(1));

  // Range-for visits every row in order, across chunk boundaries.
  size_t visited = 0;
  for (const Tuple& t : copy.rows()) {
    EXPECT_TRUE(t == copy.row(visited));
    ++visited;
  }
  EXPECT_EQ(visited, copy.size());
}

TEST(TupleTest, ToString) {
  const Tuple t({Value::Int(1), Value::String("x"), Value()});
  EXPECT_EQ(t.ToString(), "(1, 'x', NULL)");
}

TEST(TupleRefTest, OrderingAndPacking) {
  const TupleRef a{0, 5};
  const TupleRef b{1, 0};
  EXPECT_LT(a, b);
  EXPECT_NE(a.Packed(), b.Packed());
  EXPECT_EQ((TupleRef{0, 5}), a);
}

}  // namespace
}  // namespace dbrepair
