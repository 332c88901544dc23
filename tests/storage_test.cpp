// Storage-layer tests: schema, tables, sorted indexes, catalog, and the
// declarative data generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "storage/catalog.h"
#include "storage/datagen.h"

namespace rpe {
namespace {

TEST(SchemaTest, WidthAndLookup) {
  Schema s({{"a", 8}, {"b", 32}, {"c", 8}});
  EXPECT_EQ(s.num_columns(), 3u);
  EXPECT_EQ(s.row_width_bytes(), 48u);
  ASSERT_TRUE(s.ColumnIndex("b").ok());
  EXPECT_EQ(*s.ColumnIndex("b"), 1u);
  EXPECT_FALSE(s.ColumnIndex("nope").ok());
}

TEST(SchemaTest, ConcatPreservesOrderAndWidth) {
  Schema a({{"x", 8}});
  Schema b({{"y", 16}, {"z", 8}});
  Schema c = a.Concat(b);
  EXPECT_EQ(c.num_columns(), 3u);
  EXPECT_EQ(c.row_width_bytes(), 32u);
  EXPECT_EQ(c.column(1).name, "y");
}

TEST(TableTest, AppendAndMinMax) {
  Table t("t", Schema({{"a", 8}, {"b", 8}}));
  EXPECT_TRUE(t.Append({1, 5}).ok());
  EXPECT_TRUE(t.Append({3, -2}).ok());
  EXPECT_TRUE(t.Append({2, 9}).ok());
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.ColumnMin(0), 1);
  EXPECT_EQ(t.ColumnMax(0), 3);
  EXPECT_EQ(t.ColumnMin(1), -2);
  EXPECT_EQ(t.ColumnMax(1), 9);
}

TEST(TableTest, RejectsArityMismatch) {
  Table t("t", Schema({{"a", 8}}));
  EXPECT_FALSE(t.Append({1, 2}).ok());
}

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>("t", Schema({{"k", 8}, {"v", 8}}));
    // Keys with duplicates: 5, 3, 5, 1, 3, 5.
    const int64_t keys[] = {5, 3, 5, 1, 3, 5};
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(table_->Append({keys[i], i}).ok());
    }
    index_ = std::make_unique<SortedIndex>(table_.get(), 0);
  }
  std::unique_ptr<Table> table_;
  std::unique_ptr<SortedIndex> index_;
};

TEST_F(IndexTest, SeekEqualFindsAllDuplicates) {
  EXPECT_EQ(index_->SeekEqual(5).size(), 3u);
  EXPECT_EQ(index_->SeekEqual(3).size(), 2u);
  EXPECT_EQ(index_->SeekEqual(1).size(), 1u);
  EXPECT_TRUE(index_->SeekEqual(7).empty());
}

TEST_F(IndexTest, CountMatchesSeek) {
  for (int64_t k = 0; k <= 6; ++k) {
    EXPECT_EQ(index_->CountEqual(k), index_->SeekEqual(k).size());
  }
}

TEST_F(IndexTest, SeekRangeInKeyOrder) {
  const auto rows = index_->SeekRange(2, 5);
  EXPECT_EQ(rows.size(), 5u);  // two 3s + three 5s
  int64_t prev = -1;
  for (RowId id : rows) {
    EXPECT_GE(table_->row(id)[0], prev);
    prev = table_->row(id)[0];
  }
  EXPECT_EQ(index_->CountRange(2, 5), 5u);
  EXPECT_EQ(index_->CountRange(6, 10), 0u);
}

TEST_F(IndexTest, EntriesAreSorted) {
  const auto& e = index_->entries();
  EXPECT_TRUE(std::is_sorted(e.begin(), e.end()));
}

/// The index a comparison sort would build: (key, row id) pairs of
/// column `col`, sorted.
std::vector<std::pair<int64_t, RowId>> ReferenceEntries(const Table& t,
                                                        size_t col) {
  std::vector<std::pair<int64_t, RowId>> pairs;
  for (RowId id = 0; id < t.num_rows(); ++id) {
    pairs.emplace_back(t.row(id)[col], id);
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

void ExpectIndexMatchesReference(const std::vector<int64_t>& keys) {
  Table t("t", Schema({{"k", 8}}));
  for (int64_t k : keys) ASSERT_TRUE(t.Append({k}).ok());
  SortedIndex index(&t, 0);
  EXPECT_EQ(index.entries(), ReferenceEntries(t, 0));
}

TEST(IndexSortTest, EmptyAndSingleRowTables) {
  ExpectIndexMatchesReference({});
  ExpectIndexMatchesReference({42});
  ExpectIndexMatchesReference({-7});
}

TEST(IndexSortTest, AllEqualKeysKeepRowOrder) {
  ExpectIndexMatchesReference(std::vector<int64_t>(1000, 5));
  ExpectIndexMatchesReference(std::vector<int64_t>(1000, INT64_MIN));
}

TEST(IndexSortTest, AscendingAndDescendingKeys) {
  std::vector<int64_t> keys(3000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int64_t>(i);
  ExpectIndexMatchesReference(keys);
  std::reverse(keys.begin(), keys.end());
  ExpectIndexMatchesReference(keys);
}

TEST(IndexSortTest, NegativeKeysWithDuplicates) {
  Rng rng(31);
  std::vector<int64_t> keys(5000);
  for (int64_t& k : keys) k = rng.NextInt(-300, 40);
  ExpectIndexMatchesReference(keys);
}

TEST(IndexSortTest, KeysSpanningTheFullInt64Range) {
  Rng rng(32);
  std::vector<int64_t> keys = {INT64_MAX, INT64_MIN, 0, -1, 1,
                               INT64_MIN, INT64_MAX};
  for (int i = 0; i < 5000; ++i) {
    keys.push_back(static_cast<int64_t>(rng.Next()));
    // Small keys among the wide ones, so several passes see ties.
    keys.push_back(rng.NextInt(-3, 3));
  }
  ExpectIndexMatchesReference(keys);
}

TEST(IndexSortTest, KeysWhoseLowDigitsAgree) {
  // Every key shares its low byte, so the radix passes over it have one
  // bucket; the high bytes still have to order the entries.
  Rng rng(33);
  std::vector<int64_t> keys(4000);
  for (int64_t& k : keys) k = rng.NextInt(-5000, 5000) * 256 + 17;
  ExpectIndexMatchesReference(keys);
}

TEST(IndexSortTest, GeneratedColumnsMatchReference) {
  TableGenSpec spec;
  spec.name = "g";
  spec.num_rows = 20000;
  spec.columns = {{"seq", 8}, {"uni", 8}, {"zipf", 8}, {"fk", 8}};
  spec.generators = {ColumnGen::Sequential(), ColumnGen::Uniform(-50, 5000),
                     ColumnGen::Zipf(700, 1.2), ColumnGen::FkZipf(9000, 0.8)};
  Rng rng(34);
  auto t = GenerateTable(spec, &rng);
  ASSERT_TRUE(t.ok());
  for (size_t col = 0; col < spec.columns.size(); ++col) {
    SortedIndex index(t->get(), col);
    EXPECT_EQ(index.entries(), ReferenceEntries(**t, col)) << "column " << col;
  }
}

TEST(CatalogTest, CreateIndexesKeepsFirstSpecAndStopsAtFirstError) {
  Catalog catalog;
  auto t = std::make_unique<Table>("t", Schema({{"a", 8}, {"b", 8}}));
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(t->Append({(i * 37) % 11, -i}).ok());
  }
  ASSERT_TRUE(catalog.AddTable(std::move(t)).ok());

  // Repeats are no-ops; the bad spec stops the batch after "t.a".
  const std::vector<IndexSpec> bad = {
      {"t", "a"}, {"t", "a"}, {"t", "nope"}, {"t", "b"}};
  EXPECT_FALSE(catalog.CreateIndexes(bad).ok());
  EXPECT_TRUE(catalog.HasIndex("t", "a"));
  EXPECT_FALSE(catalog.HasIndex("t", "b"));
  EXPECT_EQ(catalog.num_indexes(), 1u);

  const std::vector<IndexSpec> good = {{"t", "b"}, {"t", "a"}, {"t", "b"}};
  ASSERT_TRUE(catalog.CreateIndexes(good).ok());
  EXPECT_EQ(catalog.num_indexes(), 2u);
  const Table* table = *catalog.GetTable("t");
  EXPECT_EQ(catalog.GetIndex("t", "a")->entries(),
            ReferenceEntries(*table, 0));
  EXPECT_EQ(catalog.GetIndex("t", "b")->entries(),
            ReferenceEntries(*table, 1));
}

TEST(CatalogTest, TableAndIndexLifecycle) {
  Catalog catalog;
  auto t = std::make_unique<Table>("t", Schema({{"a", 8}}));
  ASSERT_TRUE(t->Append({1}).ok());
  ASSERT_TRUE(catalog.AddTable(std::move(t)).ok());
  EXPECT_TRUE(catalog.HasTable("t"));
  EXPECT_FALSE(catalog.HasTable("u"));
  // Duplicate names rejected.
  EXPECT_FALSE(
      catalog.AddTable(std::make_unique<Table>("t", Schema({{"a", 8}})))
          .ok());

  EXPECT_FALSE(catalog.HasIndex("t", "a"));
  ASSERT_TRUE(catalog.CreateIndex("t", "a").ok());
  EXPECT_TRUE(catalog.HasIndex("t", "a"));
  EXPECT_EQ(catalog.num_indexes(), 1u);
  // Idempotent.
  ASSERT_TRUE(catalog.CreateIndex("t", "a").ok());
  EXPECT_EQ(catalog.num_indexes(), 1u);
  // Unknown table/column fail.
  EXPECT_FALSE(catalog.CreateIndex("u", "a").ok());
  EXPECT_FALSE(catalog.CreateIndex("t", "b").ok());

  catalog.DropAllIndexes();
  EXPECT_EQ(catalog.num_indexes(), 0u);
}

TEST(DatagenTest, SequentialAndConstant) {
  TableGenSpec spec;
  spec.name = "g";
  spec.num_rows = 10;
  spec.columns = {{"id", 8}, {"c", 8}};
  spec.generators = {ColumnGen::Sequential(), ColumnGen::Constant(42)};
  Rng rng(1);
  auto t = GenerateTable(spec, &rng);
  ASSERT_TRUE(t.ok());
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ((*t)->row(i)[0], static_cast<int64_t>(i));
    EXPECT_EQ((*t)->row(i)[1], 42);
  }
}

TEST(DatagenTest, UniformWithinBounds) {
  TableGenSpec spec;
  spec.name = "g";
  spec.num_rows = 2000;
  spec.columns = {{"u", 8}};
  spec.generators = {ColumnGen::Uniform(-5, 5)};
  Rng rng(2);
  auto t = GenerateTable(spec, &rng);
  ASSERT_TRUE(t.ok());
  EXPECT_GE((*t)->ColumnMin(0), -5);
  EXPECT_LE((*t)->ColumnMax(0), 5);
}

TEST(DatagenTest, FkZipfSkewsParentPopularity) {
  TableGenSpec spec;
  spec.name = "g";
  spec.num_rows = 20000;
  spec.columns = {{"fk", 8}};
  spec.generators = {ColumnGen::FkZipf(100, 1.5)};
  Rng rng(3);
  auto t = GenerateTable(spec, &rng);
  ASSERT_TRUE(t.ok());
  std::map<int64_t, int> counts;
  for (const auto& row : (*t)->rows()) counts[row[0]]++;
  // The hottest parent should dwarf the median one.
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 20000 / 100 * 5);
  EXPECT_GE((*t)->ColumnMin(0), 0);
  EXPECT_LT((*t)->ColumnMax(0), 100);
}

TEST(DatagenTest, CorrelatedFollowsSource) {
  TableGenSpec spec;
  spec.name = "g";
  spec.num_rows = 500;
  spec.columns = {{"id", 8}, {"day", 8}};
  spec.generators = {ColumnGen::Sequential(), ColumnGen::Correlated(0, 10, 3)};
  Rng rng(4);
  auto t = GenerateTable(spec, &rng);
  ASSERT_TRUE(t.ok());
  for (const auto& row : (*t)->rows()) {
    EXPECT_GE(row[1], row[0] / 10);
    EXPECT_LE(row[1], row[0] / 10 + 3);
  }
}

TEST(DatagenTest, RejectsForwardCorrelation) {
  TableGenSpec spec;
  spec.name = "g";
  spec.num_rows = 5;
  spec.columns = {{"a", 8}, {"b", 8}};
  spec.generators = {ColumnGen::Correlated(1, 1, 0), ColumnGen::Sequential()};
  Rng rng(5);
  EXPECT_FALSE(GenerateTable(spec, &rng).ok());
}

TEST(DatagenTest, RejectsArityMismatch) {
  TableGenSpec spec;
  spec.name = "g";
  spec.num_rows = 5;
  spec.columns = {{"a", 8}};
  spec.generators = {};
  Rng rng(6);
  EXPECT_FALSE(GenerateTable(spec, &rng).ok());
}

TEST(DatagenTest, ZipfShuffleScattersHotValues) {
  TableGenSpec spec;
  spec.name = "g";
  spec.num_rows = 10000;
  spec.columns = {{"z", 8}};
  spec.generators = {ColumnGen::Zipf(1000, 1.5, /*shuffle=*/true)};
  Rng rng(7);
  auto t = GenerateTable(spec, &rng);
  ASSERT_TRUE(t.ok());
  // With shuffling, the hottest value is (with overwhelming probability)
  // not rank 1 itself.
  std::map<int64_t, int> counts;
  for (const auto& row : (*t)->rows()) counts[row[0]]++;
  int64_t hottest = 0;
  int max_count = 0;
  for (const auto& [v, c] : counts) {
    if (c > max_count) {
      max_count = c;
      hottest = v;
    }
  }
  EXPECT_GT(max_count, 500);  // skew present
  EXPECT_NE(hottest, 1);      // but remapped away from rank order
}

TEST(DatagenTest, DeterministicForSeed) {
  TableGenSpec spec;
  spec.name = "g";
  spec.num_rows = 100;
  spec.columns = {{"u", 8}};
  spec.generators = {ColumnGen::Uniform(0, 1000)};
  Rng rng1(8), rng2(8);
  auto t1 = GenerateTable(spec, &rng1);
  auto t2 = GenerateTable(spec, &rng2);
  ASSERT_TRUE(t1.ok() && t2.ok());
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ((*t1)->row(i), (*t2)->row(i));
  }
}

}  // namespace
}  // namespace rpe
