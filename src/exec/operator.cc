#include "exec/operator.h"

namespace blossomtree {
namespace exec {

size_t NestedListOperator::GetNextBatch(Batch* out, size_t max_rows) {
  ScopedTimer timer(&wall_nanos_);
  util::TraceSpan span("exec", TraceName(*this));
  out->rows.clear();
  FillBatch(out, ClampBatchRows(max_rows));
  return out->rows.size();
}

void NestedListOperator::Finish() {
  Batch batch;
  while (GetNextBatch(&batch, kMaxBatchRows) > 0) {
  }
  for (size_t i = 0; i < NumChildren(); ++i) MutableChild(i)->Finish();
}

std::vector<nestedlist::NestedList> Drain(NestedListOperator* op,
                                          size_t batch_rows) {
  std::vector<nestedlist::NestedList> out;
  Batch batch;
  while (op->GetNextBatch(&batch, batch_rows) > 0) {
    out.insert(out.end(), std::make_move_iterator(batch.rows.begin()),
               std::make_move_iterator(batch.rows.end()));
  }
  return out;
}

}  // namespace exec
}  // namespace blossomtree
