// Vectorized physical plan executor: the columnar counterpart of
// exec/plan_executor.h.
//
// Executes the optimizer's plan trees by compiling each plan segment between
// pipeline breakers into a VecPipeline (vexec/pipeline.h) and running it on
// the shared pipeline driver: scans, filters, join probes and aggregations
// all go morsel-parallel under ExecOptions::num_threads, with thread-local
// sink states and a deterministic merge. Breakers are handled between
// pipelines: a hash join's build side executes first and freezes into a
// shared read-only JoinHashTable (parallel CSR build); merge joins keep the
// independently-implemented sort-merge path.
//
// Consolidated MQO plans run through the one materialization driver behind
// ExecuteConsolidatedResult (vexec/backend.h), which owns the run's
// memory-governed segment store (storage/mat_store.h). ComputeSegment runs a
// chosen class's compute pipeline once; the sink's merged batch, FOR-encoded
// with zone maps when numeric compression is on, is what the driver stores.
// ReadMaterialized leaves and join side inputs pin segments from that store
// for the lifetime of the pipeline consuming them, and spilled segments
// rehydrate transparently on access. Because column payloads are
// copy-on-write, a source batch copied from a pinned segment stays valid
// even after the pin drops and the store evicts the segment.
//
// Results are canonicalized to class attributes at the API boundary so the
// two engines are directly comparable; the differential suite asserts they
// agree on every workload, materialization choice, and thread count, which
// makes this engine an independent second witness of the MQO sharing
// semantics.

#ifndef MQO_VEXEC_VECTOR_EXECUTOR_H_
#define MQO_VEXEC_VECTOR_EXECUTOR_H_

#include "optimizer/batch_optimizer.h"
#include "storage/mat_store.h"
#include "vexec/pipeline.h"
#include "vexec/vector_ops.h"

namespace mqo {

/// Executes physical plans against a dataset, batch-at-a-time.
class VectorPlanExecutor {
 public:
  /// `store` holds the run's materialized segments; null for plans without
  /// materialized reads.
  VectorPlanExecutor(Memo* memo, const DataSet* data,
                     const ExecOptions& options = {}, MatStore* store = nullptr)
      : memo_(memo), data_(data), options_(options), store_(store) {}

  /// Executes one plan tree; the result is canonicalized to the plan's class
  /// attributes (same contract as PlanExecutor::Execute).
  Result<NamedRows> Execute(const PlanNodePtr& plan);

  /// Executes `plan` into the segment the driver stores for its class:
  /// columnar, FOR-encoded with zone maps when numeric compression is on.
  Result<ColumnBatch> ComputeSegment(const PlanNodePtr& plan);

 private:
  /// Plan execution to a batch projected onto the node's class attributes.
  Result<ColumnBatch> ExecuteBatch(const PlanNodePtr& plan);
  /// Breaker dispatch: merge joins and batch roots directly, everything else
  /// through pipeline compilation.
  Result<ColumnBatch> ExecuteBatchRaw(const PlanNodePtr& plan);
  /// Compiles the pipeline rooted at `plan` (descending through filters,
  /// projects, sorts and join probes until a source or breaker) and runs it.
  /// `agg`, when set, installs an aggregate sink fed by the chain under the
  /// aggregate node.
  Result<ColumnBatch> RunPipelineFor(const PlanNodePtr& plan,
                                     const MemoOp* agg);
  /// Logical evaluation of a class (first live operator), for index-scan
  /// inputs and join side-inputs that are not plan children.
  Result<ColumnBatch> EvaluateClassBatch(EqId eq);
  Result<ColumnBatch> EvaluateOpBatch(const MemoOp& op);
  /// Join inner side not in the plan tree: materialized store first, then
  /// logical evaluation (mirrors PlanExecutor::SideInput).
  Result<ColumnBatch> SideInputBatch(EqId eq);
  /// Base-table scan: a zero-copy TableReader view (no conversion, no cache).
  Result<ColumnBatch> Scan(const std::string& table, const std::string& alias);
  /// Filter with this executor's thread/morsel configuration.
  Result<ColumnBatch> Filter(const ColumnBatch& in, const Predicate& predicate);
  /// Projects `batch` onto the attributes of class `eq`.
  Result<ColumnBatch> ToClassAttrs(EqId eq, ColumnBatch batch);

  Memo* memo_;
  const DataSet* data_;
  ExecOptions options_;
  MatStore* store_;
};

}  // namespace mqo

#endif  // MQO_VEXEC_VECTOR_EXECUTOR_H_
