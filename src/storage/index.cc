#include "storage/index.h"

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/logging.h"

namespace rpe {

namespace {

using Entry = std::pair<int64_t, RowId>;

/// Stable LSD radix sort of `entries` by key, one byte of key - min per
/// pass. Ties keep their input order, so on input in row-id order the
/// result equals std::sort of the (key, row id) pairs.
void RadixSortByKey(int64_t min, int64_t max, std::vector<Entry>* entries) {
  constexpr int kRadixBits = 8;
  constexpr size_t kBuckets = size_t{1} << kRadixBits;
  // Unsigned arithmetic: key - min is exact even across the full int64
  // range.
  const auto offset = [min](int64_t key) {
    return static_cast<uint64_t>(key) - static_cast<uint64_t>(min);
  };
  int passes = 0;
  for (uint64_t range = offset(max); range != 0; range >>= kRadixBits) {
    ++passes;
  }
  // Every pass's digit histogram in one sweep over the keys.
  std::vector<std::array<size_t, kBuckets>> counts(passes);
  for (auto& c : counts) c.fill(0);
  for (const Entry& e : *entries) {
    const uint64_t k = offset(e.first);
    for (int p = 0; p < passes; ++p) {
      ++counts[p][(k >> (p * kRadixBits)) & (kBuckets - 1)];
    }
  }
  std::vector<Entry> scratch(entries->size());
  for (int p = 0; p < passes; ++p) {
    const int shift = p * kRadixBits;
    const auto digit = [&](const Entry& e) {
      return (offset(e.first) >> shift) & (kBuckets - 1);
    };
    std::array<size_t, kBuckets>& c = counts[p];
    // A digit every key shares would scatter the entries in place.
    if (c[digit(entries->front())] == entries->size()) continue;
    size_t next = 0;
    for (size_t& slot : c) {
      const size_t count = slot;
      slot = next;
      next += count;
    }
    for (const Entry& e : *entries) scratch[c[digit(e)]++] = e;
    entries->swap(scratch);
  }
}

}  // namespace

SortedIndex::SortedIndex(const Table* table, size_t column)
    : table_(table), column_(column) {
  RPE_CHECK(table != nullptr);
  RPE_CHECK_LT(column, table->schema().num_columns());
  const uint64_t n = table->num_rows();
  entries_.resize(n);
  if (n == 0) return;
  // One pass pulls the keys out of the rows, in row-id order; a column
  // that is already ascending (a sequential key) is left as it is.
  int64_t min = table->row(0)[column];
  int64_t max = min;
  bool ascending = true;
  for (RowId id = 0; id < n; ++id) {
    const int64_t key = table->row(id)[column];
    ascending = ascending && key >= max;
    min = std::min(min, key);
    max = std::max(max, key);
    entries_[id] = Entry(key, id);
  }
  if (!ascending) RadixSortByKey(min, max, &entries_);
}

std::vector<RowId> SortedIndex::SeekEqual(int64_t key) const {
  auto [lo, hi] = std::equal_range(
      entries_.begin(), entries_.end(), std::make_pair(key, RowId{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<RowId> out;
  out.reserve(static_cast<size_t>(hi - lo));
  for (auto it = lo; it != hi; ++it) out.push_back(it->second);
  return out;
}

std::vector<RowId> SortedIndex::SeekRange(int64_t lo_key, int64_t hi_key) const {
  auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), std::make_pair(lo_key, RowId{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<RowId> out;
  for (auto it = lo; it != entries_.end() && it->first <= hi_key; ++it) {
    out.push_back(it->second);
  }
  return out;
}

uint64_t SortedIndex::CountEqual(int64_t key) const {
  auto [lo, hi] = std::equal_range(
      entries_.begin(), entries_.end(), std::make_pair(key, RowId{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  return static_cast<uint64_t>(hi - lo);
}

uint64_t SortedIndex::CountRange(int64_t lo_key, int64_t hi_key) const {
  auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), std::make_pair(lo_key, RowId{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  uint64_t n = 0;
  for (auto it = lo; it != entries_.end() && it->first <= hi_key; ++it) ++n;
  return n;
}

}  // namespace rpe
