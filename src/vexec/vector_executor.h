// Vectorized physical plan executor: the columnar counterpart of
// exec/plan_executor.h.
//
// Executes the optimizer's plan trees — including consolidated MQO plans —
// by compiling each plan segment between pipeline breakers into a
// VecPipeline (vexec/pipeline.h) and running it on the shared pipeline
// driver: scans, filters, join probes and aggregations all go morsel-
// parallel under ExecOptions::num_threads, with thread-local sink states
// and a deterministic merge. Breakers are handled between pipelines: a
// hash join's build side executes first and freezes into a shared
// read-only JoinHashTable (parallel CSR build); merge joins keep
// the independently-implemented sort-merge path; materialized nodes run
// their compute pipeline once and the sink's merged segment goes straight
// into the shared MatStore (storage/mat_store.h) that ReadMaterialized
// leaves and join side-inputs consult, zero-copy.
//
// The store is memory-governed (ExecOptions::mat_budget_bytes): pipeline
// sinks Put their merged segments under the budget, which may evict older
// segments to the spill directory; readers pin segments for the lifetime of
// the pipeline consuming them, and spilled segments rehydrate transparently
// on access. Because column payloads are copy-on-write, a source batch
// copied from a pinned segment stays valid even after the pin drops and the
// store evicts the segment.
//
// Results are canonicalized to class attributes at the API boundary so the
// two engines are directly comparable; the differential suite asserts they
// agree on every workload, materialization choice, and thread count, which
// makes this engine an independent second witness of the MQO sharing
// semantics.

#ifndef MQO_VEXEC_VECTOR_EXECUTOR_H_
#define MQO_VEXEC_VECTOR_EXECUTOR_H_

#include "obs/explain.h"
#include "optimizer/batch_optimizer.h"
#include "stats/feedback.h"
#include "storage/mat_store.h"
#include "vexec/pipeline.h"
#include "vexec/vector_ops.h"

namespace mqo {

/// Executes physical plans against a dataset, batch-at-a-time.
class VectorPlanExecutor {
 public:
  VectorPlanExecutor(Memo* memo, const DataSet* data,
                     const ExecOptions& options = {})
      : memo_(memo),
        data_(data),
        options_(options),
        store_(options.mat_store()) {}

  /// Executes one plan tree; the result is canonicalized to the plan's class
  /// attributes (same contract as PlanExecutor::Execute).
  Result<NamedRows> Execute(const PlanNodePtr& plan);

  /// Executes `compute_plan` and stores the columnar result for class `eq`.
  Status MaterializeNode(EqId eq, const PlanNodePtr& compute_plan);

  /// Materializes every chosen node in dependency order, then executes the
  /// batch root's children; one result per batched query.
  Result<std::vector<NamedRows>> ExecuteConsolidated(
      const ConsolidatedPlan& plan);

  /// Bytes held by this executor's materialized-segment store.
  size_t store_bytes() const { return store_.bytes_used(); }

  /// The store itself (budget accounting, spill stats), for tests/benches.
  const MatStore& store() const { return store_; }

  /// Observed cardinalities of the segments materialized by the most recent
  /// ExecuteConsolidated run, keyed by structural class fingerprint (same
  /// contract as PlanExecutor::feedback).
  const CardinalityFeedback& feedback() const { return feedback_; }

  /// Per-segment runtime telemetry of the most recent ExecuteConsolidated
  /// run (actual rows, compute time, store reads/reloads), eq-sorted. Feeds
  /// the facade's EXPLAIN ANALYZE.
  std::vector<SegmentRuntime> SegmentRuntimes() const;

  /// Materializations of the most recent ExecuteConsolidated run served
  /// from the cross-batch segment cache instead of being computed.
  int64_t cross_batch_hits() const { return cross_batch_hits_; }

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
  MatStore store_;
  CardinalityFeedback feedback_;
  std::unordered_map<EqId, uint64_t> fingerprints_;
  std::unordered_map<EqId, double> compute_ms_;  ///< Materialization times.
  std::unordered_map<EqId, double> expected_reads_;  ///< Plan's read counts.
  int64_t cross_batch_hits_ = 0;
};

}  // namespace mqo

#endif  // MQO_VEXEC_VECTOR_EXECUTOR_H_
