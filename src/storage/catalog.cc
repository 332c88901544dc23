#include "storage/catalog.h"

#include <set>

#include "common/thread_pool.h"

namespace rpe {

namespace {
std::string IndexKey(const std::string& table, const std::string& column) {
  return table + "." + column;
}
}  // namespace

Status Catalog::AddTable(std::unique_ptr<Table> table) {
  const std::string name = table->name();
  if (tables_.count(name) > 0) {
    return Status::InvalidArgument("table already exists: " + name);
  }
  tables_[name] = std::move(table);
  return Status::OK();
}

Result<const Table*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  return static_cast<const Table*>(it->second.get());
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

Status Catalog::CreateIndexes(std::span<const IndexSpec> specs) {
  struct Build {
    std::string key;
    const Table* table;
    size_t column;
    std::unique_ptr<SortedIndex> index;
  };
  std::vector<Build> builds;
  std::set<std::string> seen;
  Status status = Status::OK();
  for (const IndexSpec& spec : specs) {
    std::string key = IndexKey(spec.table, spec.column);
    if (indexes_.count(key) > 0 || !seen.insert(key).second) continue;
    auto t = GetTable(spec.table);
    if (!t.ok()) {
      status = t.status();
      break;
    }
    auto col = (*t)->schema().ColumnIndex(spec.column);
    if (!col.ok()) {
      status = col.status();
      break;
    }
    builds.push_back(Build{std::move(key), *t, *col, nullptr});
  }
  ThreadPool::Global().ParallelFor(builds.size(), [&](size_t i) {
    builds[i].index =
        std::make_unique<SortedIndex>(builds[i].table, builds[i].column);
  });
  for (Build& b : builds) indexes_[b.key] = std::move(b.index);
  return status;
}

Status Catalog::CreateIndex(const std::string& table,
                            const std::string& column) {
  const IndexSpec spec{table, column};
  return CreateIndexes({&spec, 1});
}

void Catalog::DropAllIndexes() { indexes_.clear(); }

const SortedIndex* Catalog::GetIndex(const std::string& table,
                                     const std::string& column) const {
  auto it = indexes_.find(IndexKey(table, column));
  return it == indexes_.end() ? nullptr : it->second.get();
}

bool Catalog::HasIndex(const std::string& table,
                       const std::string& column) const {
  return GetIndex(table, column) != nullptr;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

}  // namespace rpe
