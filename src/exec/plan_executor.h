// Row-at-a-time physical plan interpreter: the reference engine.
//
// Executes one optimizer plan tree with bag semantics, operator by operator
// over whole row sets. The vectorized engine (vexec/vector_executor.h) is
// checked against it, so it stays plain: serial, uncompressed, and without
// any materialization bookkeeping of its own.
//
// Consolidated MQO plans run through the one materialization driver behind
// ExecuteConsolidatedResult (vexec/backend.h). The driver owns the run's
// columnar segment store (storage/mat_store.h), computes each chosen class
// once through ComputeSegment, and then executes the batch's queries here;
// their ReadMaterialized leaves and BNL/index side inputs read segments back
// through the store this executor was given, pinned while they are
// converted to rows. Segments stay plain decoded columns, so the row
// engine's store fills faster than vexec's FOR-encoded one under the same
// budget and spills first; results are the same at every budget.

#ifndef MQO_EXEC_PLAN_EXECUTOR_H_
#define MQO_EXEC_PLAN_EXECUTOR_H_

#include "exec/evaluator.h"
#include "exec/exec_options.h"
#include "optimizer/batch_optimizer.h"
#include "storage/mat_store.h"

namespace mqo {

/// Executes physical plans against a dataset. The interpreter is always
/// serial; `options` only supplies the observability sink.
class PlanExecutor {
 public:
  /// `store` holds the run's materialized segments; null for plans without
  /// materialized reads.
  PlanExecutor(Memo* memo, const DataSet* data,
               const ExecOptions& options = {}, MatStore* store = nullptr)
      : memo_(memo),
        data_(data),
        evaluator_(memo, data),
        store_(store),
        obs_(options.obs) {}

  /// Executes one plan tree; the result is canonicalized to the plan's class
  /// attributes. ReadMaterialized leaves require the node to be present in
  /// the store.
  Result<NamedRows> Execute(const PlanNodePtr& plan);

  /// Executes `plan` into the segment the driver stores for its class: the
  /// plain columns of Execute's result.
  Result<ColumnBatch> ComputeSegment(const PlanNodePtr& plan);

 private:
  Result<NamedRows> ExecuteUncanonicalized(const PlanNodePtr& plan);
  /// Input rows for a join's inner side that is not a plan child (base
  /// relation or materialized node, rescanned by BNL/index probes).
  Result<NamedRows> SideInput(EqId eq);

  Memo* memo_;
  const DataSet* data_;
  Evaluator evaluator_;
  MatStore* store_;
  ObsContext* obs_ = nullptr;
};

}  // namespace mqo

#endif  // MQO_EXEC_PLAN_EXECUTOR_H_
