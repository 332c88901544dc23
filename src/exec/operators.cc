#include "exec/operators.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.h"
#include "exec/cost_model.h"

namespace rpe {

namespace {

/// *out = a ++ b, reusing *out's storage.
void ConcatRowsInto(const Row& a, const Row& b, Row* out) {
  out->assign(a.begin(), a.end());
  out->insert(out->end(), b.begin(), b.end());
}

/// Deterministic sort comparator: primary key column, full-row tiebreak.
struct RowKeyLess {
  size_t key;
  bool operator()(const Row& a, const Row& b) const {
    if (a[key] != b[key]) return a[key] < b[key];
    return a < b;
  }
};

/// The single base table fed into an inner NLJ subtree (for the
/// matches-per-outer-row bound used in cardinality refinement).
const PlanNode* InnerLeaf(const PlanNode* node) {
  while (node->num_children() > 0) node = node->child(0);
  return node;
}

}  // namespace

Operator::Operator(const PlanNode* node, ExecContext* ctx)
    : node_(node),
      ctx_(ctx),
      width_(static_cast<double>(node->output_schema.row_width_bytes())) {}

void Operator::ReOpen() {
  Close();
  Open();
}

bool Operator::Next(Row* out) {
  if (!NextImpl(out)) return false;
  ctx_->OnRowProduced(node_->id, node_->op, width_);
  return true;
}

// --- TableScanOp ------------------------------------------------------------

TableScanOp::TableScanOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {}

void TableScanOp::Open() {
  table_ = *ctx_->catalog().GetTable(node_->table);
  pos_ = 0;
  if (!node_->nlj_inner) {
    // Driver-node input sizes are known exactly at pipeline start (§3.4).
    NodeCounters& c = counters();
    const double n = static_cast<double>(table_->num_rows());
    c.e = n;
    c.lb = std::max(c.lb, 0.0);
    c.ub = n;
  }
}

void TableScanOp::ReOpen() {
  // Rescan (naive nested-loop inner): position resets, counters accumulate.
  // A nested-loop join re-opens its inner subtree lazily, so the first
  // ReOpen may arrive before any Open.
  if (table_ == nullptr) {
    Open();
    return;
  }
  pos_ = 0;
}

bool TableScanOp::NextImpl(Row* out) {
  if (pos_ >= table_->num_rows()) return false;
  *out = table_->row(pos_++);
  ctx_->Charge(width_ * kReadCostPerByte);  // physical read
  return true;
}

// --- IndexScanOp ------------------------------------------------------------

IndexScanOp::IndexScanOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {}

void IndexScanOp::Open() {
  table_ = *ctx_->catalog().GetTable(node_->table);
  index_ = ctx_->catalog().GetIndex(node_->table, node_->index_column);
  RPE_CHECK(index_ != nullptr) << "missing index for IndexScan";
  pos_ = 0;
  if (!node_->nlj_inner) {
    NodeCounters& c = counters();
    const double n = static_cast<double>(index_->num_entries());
    c.e = n;
    c.ub = n;
  }
}

void IndexScanOp::ReOpen() {
  if (index_ == nullptr) {
    Open();
    return;
  }
  pos_ = 0;
}

bool IndexScanOp::NextImpl(Row* out) {
  if (pos_ >= index_->entries().size()) return false;
  *out = table_->row(index_->entries()[pos_++].second);
  ctx_->Charge(width_ * kReadCostPerByte);
  return true;
}

// --- IndexSeekOp ------------------------------------------------------------

IndexSeekOp::IndexSeekOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {}

void IndexSeekOp::Open() {
  table_ = *ctx_->catalog().GetTable(node_->table);
  index_ = ctx_->catalog().GetIndex(node_->table, node_->index_column);
  RPE_CHECK(index_ != nullptr) << "missing index for IndexSeek";
  matches_ = index_->SeekEqual(ctx_->correlated_key());
  pos_ = 0;
  ctx_->Charge(kSeekOpenCost);  // B-tree descent
}

void IndexSeekOp::ReOpen() { Open(); }

bool IndexSeekOp::NextImpl(Row* out) {
  if (pos_ >= matches_.size()) return false;
  *out = table_->row(matches_[pos_++]);
  ctx_->Charge(width_ * kReadCostPerByte);
  return true;
}

// --- FilterOp ---------------------------------------------------------------

FilterOp::FilterOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  child_ = Operator::Create(node->child(0), ctx);
}

void FilterOp::Open() {
  child_->Open();
  // Capture the correlated parameter at open time: a nested-loop join deeper
  // in this subtree may overwrite the context's key while we are draining.
  param_ = ctx_->correlated_key();
}

void FilterOp::ReOpen() {
  child_->ReOpen();
  param_ = ctx_->correlated_key();
}

void FilterOp::Close() { child_->Close(); }

bool FilterOp::NextImpl(Row* out) {
  while (child_->Next(out)) {
    if (node_->pred.Eval(*out, param_)) return true;
  }
  return false;
}

// --- NestedLoopJoinOp -------------------------------------------------------

NestedLoopJoinOp::NestedLoopJoinOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  outer_ = Operator::Create(node->child(0), ctx);
  inner_ = Operator::Create(node->child(1), ctx);
}

void NestedLoopJoinOp::Open() {
  outer_->Open();
  have_outer_ = false;
  // Bound on matches per outer row: the size of the inner base table.
  const PlanNode* leaf = InnerLeaf(node_->child(1));
  if (!leaf->table.empty()) {
    auto t = ctx_->catalog().GetTable(leaf->table);
    if (t.ok()) {
      counters().max_join_group = static_cast<double>((*t)->num_rows());
    }
  }
}

void NestedLoopJoinOp::Close() {
  outer_->Close();
  inner_->Close();
}

bool NestedLoopJoinOp::NextImpl(Row* out) {
  while (true) {
    if (!have_outer_) {
      if (!outer_->Next(&outer_row_)) return false;
      ctx_->SetCorrelatedKey(outer_row_[node_->left_key]);
      inner_->ReOpen();
      have_outer_ = true;
    }
    if (inner_->Next(&inner_row_)) {
      ConcatRowsInto(outer_row_, inner_row_, out);
      return true;
    }
    have_outer_ = false;
  }
}

// --- HashJoinOp -------------------------------------------------------------

HashJoinOp::HashJoinOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  build_ = Operator::Create(node->child(0), ctx);
  probe_ = Operator::Create(node->child(1), ctx);
}

void HashJoinOp::Open() {
  table_.clear();
  matches_ = nullptr;
  match_pos_ = 0;

  build_->Open();
  const double build_width =
      static_cast<double>(node_->child(0)->output_schema.row_width_bytes());
  const double mem_limit = ctx_->options().memory_limit_bytes;
  double build_bytes = 0.0;
  double spilled_rows = 0.0;
  Row row;
  while (build_->Next(&row)) {
    const int64_t key = row[node_->left_key];
    table_[key].push_back(std::move(row));
    ctx_->Charge(BuildCostPerRow(OpType::kHashJoin));
    build_bytes += build_width;
    if (build_bytes > mem_limit) {
      // Spill: this row's partition goes to (virtual) disk.
      spilled_rows += 1.0;
      ctx_->ChargeWrite(node_->id, build_width);
    }
  }
  if (spilled_rows > 0.0) {
    // Re-read pass over spilled partitions; per §3.1 spills surface as
    // additional GetNext calls at the node.
    NodeCounters& c = counters();
    for (double i = 0.0; i < spilled_rows; i += 1.0) {
      c.k += 1.0;
      ctx_->ChargeRead(node_->id, build_width);
    }
  }
  double max_group = 0.0;
  for (const auto& [key, rows] : table_) {
    max_group = std::max(max_group, static_cast<double>(rows.size()));
  }
  NodeCounters& c = counters();
  c.max_join_group = max_group;
  c.input_done = true;

  probe_->Open();
}

void HashJoinOp::Close() {
  build_->Close();
  probe_->Close();
  table_.clear();
}

bool HashJoinOp::NextImpl(Row* out) {
  while (true) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      ConcatRowsInto((*matches_)[match_pos_++], probe_row_, out);
      return true;
    }
    matches_ = nullptr;
    if (!probe_->Next(&probe_row_)) return false;
    auto it = table_.find(probe_row_[node_->right_key]);
    if (it != table_.end()) {
      matches_ = &it->second;
      match_pos_ = 0;
    }
  }
}

// --- MergeJoinOp ------------------------------------------------------------

MergeJoinOp::MergeJoinOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  left_ = Operator::Create(node->child(0), ctx);
  right_ = Operator::Create(node->child(1), ctx);
}

void MergeJoinOp::Open() {
  left_->Open();
  right_->Open();
  have_left_ = AdvanceLeft();
  have_right_ = AdvanceRight();
  right_group_.clear();
  emitting_ = false;
}

void MergeJoinOp::Close() {
  left_->Close();
  right_->Close();
}

bool MergeJoinOp::AdvanceLeft() {
  have_left_ = left_->Next(&left_row_);
  return have_left_;
}

bool MergeJoinOp::AdvanceRight() {
  have_right_ = right_->Next(&right_row_);
  return have_right_;
}

bool MergeJoinOp::NextImpl(Row* out) {
  while (true) {
    if (emitting_) {
      if (group_pos_ < right_group_.size()) {
        ConcatRowsInto(left_row_, right_group_[group_pos_++], out);
        return true;
      }
      emitting_ = false;
      if (!AdvanceLeft()) return false;
      if (left_row_[node_->left_key] == group_key_) {
        group_pos_ = 0;
        emitting_ = true;
        continue;
      }
    }
    if (!have_left_ || !have_right_) return false;
    const int64_t lk = left_row_[node_->left_key];
    const int64_t rk = right_row_[node_->right_key];
    if (lk < rk) {
      if (!AdvanceLeft()) return false;
    } else if (lk > rk) {
      if (!AdvanceRight()) return false;
    } else {
      group_key_ = lk;
      right_group_.clear();
      while (have_right_ && right_row_[node_->right_key] == group_key_) {
        right_group_.push_back(right_row_);
        AdvanceRight();
      }
      group_pos_ = 0;
      emitting_ = true;
    }
  }
}

// --- SortOp -----------------------------------------------------------------

SortOp::SortOp(const PlanNode* node, ExecContext* ctx) : Operator(node, ctx) {
  child_ = Operator::Create(node->child(0), ctx);
}

void SortOp::Open() {
  rows_.clear();
  pos_ = 0;
  child_->Open();
  const double mem_limit = ctx_->options().memory_limit_bytes;
  double buffered_bytes = 0.0;
  Row row;
  while (child_->Next(&row)) {
    rows_.push_back(std::move(row));
    ctx_->Charge(BuildCostPerRow(OpType::kSort));
    buffered_bytes += width_;
    if (buffered_bytes > mem_limit) {
      // External sort: run written to (virtual) disk.
      ctx_->ChargeWrite(node_->id, width_);
    }
  }
  std::sort(rows_.begin(), rows_.end(), RowKeyLess{node_->sort_key});
  // Comparison work, charged in chunks so the observation sampler can see
  // time passing during long sorts.
  const double n = static_cast<double>(rows_.size());
  const double sort_cpu = 0.3 * n * std::log2(n + 2.0);
  const int chunks = 32;
  for (int i = 0; i < chunks; ++i) ctx_->Charge(sort_cpu / chunks);
  NodeCounters& c = counters();
  c.input_done = true;
  c.e = n;
  c.ub = n;
}

void SortOp::Close() {
  child_->Close();
  rows_.clear();
}

bool SortOp::NextImpl(Row* out) {
  if (pos_ >= rows_.size()) return false;
  *out = rows_[pos_++];
  return true;
}

// --- BatchSortOp ------------------------------------------------------------

BatchSortOp::BatchSortOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  child_ = Operator::Create(node->child(0), ctx);
}

void BatchSortOp::Open() {
  child_->Open();
  batch_.clear();
  pos_ = 0;
  child_done_ = false;
}

void BatchSortOp::ReOpen() {
  child_->ReOpen();
  batch_.clear();
  pos_ = 0;
  child_done_ = false;
}

void BatchSortOp::Close() {
  child_->Close();
  batch_.clear();
}

bool BatchSortOp::Refill() {
  batch_.clear();
  pos_ = 0;
  if (child_done_) return false;
  Row row;
  while (batch_.size() < node_->batch_size) {
    if (!child_->Next(&row)) {
      child_done_ = true;
      break;
    }
    batch_.push_back(std::move(row));
    ctx_->Charge(BuildCostPerRow(OpType::kBatchSort));
  }
  if (batch_.empty()) return false;
  std::sort(batch_.begin(), batch_.end(), RowKeyLess{node_->sort_key});
  return true;
}

bool BatchSortOp::NextImpl(Row* out) {
  if (pos_ >= batch_.size()) {
    if (!Refill()) return false;
  }
  *out = batch_[pos_++];
  return true;
}

// --- HashAggregateOp --------------------------------------------------------

HashAggregateOp::HashAggregateOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  child_ = Operator::Create(node->child(0), ctx);
}

void HashAggregateOp::Open() {
  groups_.clear();
  pos_ = 0;
  child_->Open();
  // Ordered map for deterministic emission order across platforms.
  std::map<std::vector<int64_t>, int64_t> agg;
  Row row;
  std::vector<int64_t> key(node_->group_cols.size());
  while (child_->Next(&row)) {
    for (size_t i = 0; i < node_->group_cols.size(); ++i) {
      key[i] = row[node_->group_cols[i]];
    }
    agg[key] += 1;
    ctx_->Charge(BuildCostPerRow(OpType::kHashAggregate));
  }
  groups_.reserve(agg.size());
  for (const auto& [k, count] : agg) {
    Row g = k;
    g.push_back(count);
    groups_.push_back(std::move(g));
  }
  NodeCounters& c = counters();
  c.input_done = true;
  c.e = static_cast<double>(groups_.size());
  c.ub = c.e;
}

void HashAggregateOp::Close() {
  child_->Close();
  groups_.clear();
}

bool HashAggregateOp::NextImpl(Row* out) {
  if (pos_ >= groups_.size()) return false;
  *out = groups_[pos_++];
  return true;
}

// --- StreamAggregateOp ------------------------------------------------------

StreamAggregateOp::StreamAggregateOp(const PlanNode* node, ExecContext* ctx)
    : Operator(node, ctx) {
  child_ = Operator::Create(node->child(0), ctx);
}

void StreamAggregateOp::Open() {
  child_->Open();
  have_pending_ = false;
}

void StreamAggregateOp::ReOpen() {
  child_->ReOpen();
  have_pending_ = false;
}

void StreamAggregateOp::Close() { child_->Close(); }

bool StreamAggregateOp::NextImpl(Row* out) {
  if (!have_pending_) {
    if (!child_->Next(&pending_)) return false;
    have_pending_ = true;
  }
  const std::vector<size_t>& cols = node_->group_cols;
  // Emits pending_'s group with its count into *out.
  const auto emit = [&](int64_t count) {
    out->resize(cols.size() + 1);
    for (size_t i = 0; i < cols.size(); ++i) (*out)[i] = pending_[cols[i]];
    (*out)[cols.size()] = count;
  };
  int64_t count = 1;
  while (child_->Next(&row_)) {
    ctx_->Charge(0.4);  // per-input aggregation work
    const bool same_group = std::all_of(
        cols.begin(), cols.end(),
        [&](size_t c) { return row_[c] == pending_[c]; });
    if (same_group) {
      ++count;
    } else {
      emit(count);
      std::swap(pending_, row_);
      return true;
    }
  }
  have_pending_ = false;
  emit(count);
  return true;
}

// --- TopOp ------------------------------------------------------------------

TopOp::TopOp(const PlanNode* node, ExecContext* ctx) : Operator(node, ctx) {
  child_ = Operator::Create(node->child(0), ctx);
}

void TopOp::Open() {
  child_->Open();
  emitted_ = 0;
}

void TopOp::ReOpen() {
  child_->ReOpen();
  emitted_ = 0;
}

void TopOp::Close() { child_->Close(); }

bool TopOp::NextImpl(Row* out) {
  if (emitted_ >= node_->limit) return false;
  if (!child_->Next(out)) return false;
  ++emitted_;
  return true;
}

// --- Factory ----------------------------------------------------------------

std::unique_ptr<Operator> Operator::Create(const PlanNode* node,
                                           ExecContext* ctx) {
  switch (node->op) {
    case OpType::kTableScan: return std::make_unique<TableScanOp>(node, ctx);
    case OpType::kIndexScan: return std::make_unique<IndexScanOp>(node, ctx);
    case OpType::kIndexSeek: return std::make_unique<IndexSeekOp>(node, ctx);
    case OpType::kFilter: return std::make_unique<FilterOp>(node, ctx);
    case OpType::kNestedLoopJoin:
      return std::make_unique<NestedLoopJoinOp>(node, ctx);
    case OpType::kHashJoin: return std::make_unique<HashJoinOp>(node, ctx);
    case OpType::kMergeJoin: return std::make_unique<MergeJoinOp>(node, ctx);
    case OpType::kSort: return std::make_unique<SortOp>(node, ctx);
    case OpType::kBatchSort: return std::make_unique<BatchSortOp>(node, ctx);
    case OpType::kHashAggregate:
      return std::make_unique<HashAggregateOp>(node, ctx);
    case OpType::kStreamAggregate:
      return std::make_unique<StreamAggregateOp>(node, ctx);
    case OpType::kTop: return std::make_unique<TopOp>(node, ctx);
  }
  RPE_CHECK(false) << "unknown operator";
  return nullptr;
}

}  // namespace rpe
