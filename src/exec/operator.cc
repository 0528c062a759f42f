#include "exec/operator.h"

namespace blossomtree {
namespace exec {

size_t NestedListOperator::GetNextBatch(Batch* out, size_t max_rows) {
  ScopedTimer timer(&wall_nanos_);
  util::TraceSpan span("exec", TraceName(*this));
  out->clear();
  FillBatch(out, ClampBatchRows(max_rows));
  // The one emission point: charge the rows before counting them, so a
  // row that trips the budget is neither delivered nor counted, and
  // matches/nl_cells always equal what the consumer received. A batch
  // that fits both budgets is charged in one call; only one that would
  // cross a limit is charged row by row, to cut it at the row that trips.
  uint64_t batch_cells = 0;
  for (nestedlist::NestedList row : *out) batch_cells += row.cells();
  if (guard_ == nullptr ||
      guard_->TryChargeCells(batch_cells,
                             batch_cells * nestedlist::kCellBytes)) {
    cells_delivered_ += batch_cells;
    rows_delivered_ += out->count;
    return out->count;
  }
  uint32_t delivered = 0;
  for (; delivered < out->count; ++delivered) {
    uint64_t cells = (*out)[delivered].cells();
    if (!guard_->ChargeCells(cells, cells * nestedlist::kCellBytes)) break;
    cells_delivered_ += cells;
  }
  out->count = delivered;
  rows_delivered_ += delivered;
  return delivered;
}

ExecStats NestedListOperator::Stats() const {
  ExecStats s;
  s.wall_nanos = wall_nanos_;
  s.matches = rows_delivered_;
  s.nl_cells = cells_delivered_;
  return s;
}

void NestedListOperator::Finish() {
  Batch batch;
  while (GetNextBatch(&batch, kMaxBatchRows) > 0) {
  }
  for (size_t i = 0; i < NumChildren(); ++i) MutableChild(i)->Finish();
}

nestedlist::Arena Drain(NestedListOperator* op, size_t batch_rows) {
  nestedlist::Arena out;
  Batch batch;
  while (op->GetNextBatch(&batch, batch_rows) > 0) {
    for (nestedlist::NestedList row : batch) out.AppendRow(row);
  }
  return out;
}

}  // namespace exec
}  // namespace blossomtree
