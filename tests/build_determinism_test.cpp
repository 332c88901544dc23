// Workload builds are deterministic at any ThreadPool size: the index
// builds fan out over the pool, one result slot per index, and every
// table row and index entry must come out byte-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "workload/workload.h"

namespace rpe {
namespace {

/// FNV-1a over 64-bit words.
class Hasher {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void Add(const std::string& s) {
    for (unsigned char c : s) Add(uint64_t{c});
    Add(s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Hash of every table row and every index entry of a built workload,
/// tables in name order and indexes in design order.
uint64_t CatalogHash(const Workload& w) {
  Hasher h;
  for (const std::string& name : w.catalog->TableNames()) {
    const Table* table = *w.catalog->GetTable(name);
    h.Add(name);
    h.Add(table->num_rows());
    for (const Row& row : table->rows()) {
      for (int64_t v : row) h.Add(static_cast<uint64_t>(v));
    }
  }
  h.Add(w.catalog->num_indexes());
  for (const IndexSpec& spec : w.design.indexes) {
    const SortedIndex* index = w.catalog->GetIndex(spec.table, spec.column);
    if (index == nullptr) {
      ADD_FAILURE() << "missing index " << spec.table << "." << spec.column;
      continue;
    }
    h.Add(spec.table + "." + spec.column);
    for (const auto& [key, id] : index->entries()) {
      h.Add(static_cast<uint64_t>(key));
      h.Add(id);
    }
  }
  return h.value();
}

WorkloadConfig FullyTuned(WorkloadKind kind, const char* name) {
  WorkloadConfig config;
  config.kind = kind;
  config.name = name;
  config.scale = 3.0;
  config.zipf = 1.0;
  config.tuning = TuningLevel::kFullyTuned;
  config.num_queries = 10;
  config.seed = 5;
  return config;
}

class BuildWorkloadDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_threads_ = ThreadPool::Global().num_threads();
  }
  void TearDown() override { ThreadPool::SetGlobalThreads(saved_threads_); }

  static void ExpectSameHashAtEveryPoolSize(const WorkloadConfig& config) {
    std::vector<uint64_t> hashes;
    for (int threads : {1, 2, 4, 8}) {
      ThreadPool::SetGlobalThreads(threads);
      auto w = BuildWorkload(config);
      ASSERT_TRUE(w.ok()) << w.status().ToString();
      ASSERT_EQ(w->catalog->num_indexes(), w->design.indexes.size());
      hashes.push_back(CatalogHash(*w));
    }
    for (size_t i = 1; i < hashes.size(); ++i) {
      EXPECT_EQ(hashes[i], hashes[0]) << "pool size index " << i;
    }
  }

 private:
  int saved_threads_ = 0;
};

TEST_F(BuildWorkloadDeterminismTest, TpchTablesAndIndexesMatch) {
  ExpectSameHashAtEveryPoolSize(FullyTuned(WorkloadKind::kTpch, "tpch"));
}

TEST_F(BuildWorkloadDeterminismTest, TpcdsTablesAndIndexesMatch) {
  ExpectSameHashAtEveryPoolSize(FullyTuned(WorkloadKind::kTpcds, "tpcds"));
}

}  // namespace
}  // namespace rpe
