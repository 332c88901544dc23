// Catalog: named tables plus the current physical design (set of secondary
// indexes). One Catalog instance corresponds to one "database + physical
// design" configuration in the paper's experiments.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/index.h"
#include "storage/table.h"

namespace rpe {

/// \brief One secondary index to create: a column of a named table.
struct IndexSpec {
  std::string table;
  std::string column;
};

/// \brief Owns tables and their secondary indexes.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;

  /// Register a table; fails if the name is taken.
  Status AddTable(std::unique_ptr<Table> table);

  /// Table lookup; error if absent.
  Result<const Table*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;

  /// Build a sorted index for each spec; a (table, column) that is
  /// already indexed, or repeats an earlier spec, is a no-op. The specs
  /// are resolved in order first: the first unknown table or column ends
  /// the batch with its error, and only the specs before it are built.
  /// The builds run on the global ThreadPool, one result slot per spec,
  /// and are inserted in spec order, so the catalog is the same at any
  /// thread count.
  Status CreateIndexes(std::span<const IndexSpec> specs);
  /// CreateIndexes of the one spec {table, column}.
  Status CreateIndex(const std::string& table, const std::string& column);
  /// Drop all indexes (e.g. to re-apply a different physical design).
  void DropAllIndexes();

  /// Index lookup; nullptr if no index exists on (table, column).
  const SortedIndex* GetIndex(const std::string& table,
                              const std::string& column) const;
  bool HasIndex(const std::string& table, const std::string& column) const;

  std::vector<std::string> TableNames() const;
  /// Total number of secondary indexes.
  size_t num_indexes() const { return indexes_.size(); }

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  // Keyed by "table.column".
  std::map<std::string, std::unique_ptr<SortedIndex>> indexes_;
};

}  // namespace rpe
