#include "vexec/backend.h"

#include <algorithm>

#include "common/timer.h"
#include "obs/obs.h"
#include "storage/segment_cache.h"

namespace mqo {

const char* ExecBackendToString(ExecBackend backend) {
  switch (backend) {
    case ExecBackend::kRow:
      return "row";
    case ExecBackend::kVector:
      return "vector";
  }
  return "?";
}

Result<std::vector<NamedRows>> ExecuteConsolidatedWith(
    ExecBackend backend, Memo* memo, const DataSet* data,
    const ConsolidatedPlan& plan, const ExecOptions& exec) {
  MQO_ASSIGN_OR_RETURN(ExecResult result, ExecuteConsolidatedResult(
                                              backend, memo, data, plan, exec));
  return std::move(result.results);
}

namespace {

/// Where one engine's driver spans and materialization timings report.
struct EngineObsNames {
  const char* category;            ///< Span category: "exec" or "vexec".
  const char* materialize_metric;  ///< "<category>.materialize_ms".
};

/// The plan's chosen classes children-first: a compute plan may read
/// materialized descendants, and BatchOptimizer emits them in EqId order.
std::vector<const ConsolidatedPlan::MatNode*> ChildrenFirst(
    const Memo& memo, const ConsolidatedPlan& plan) {
  const std::vector<EqId> topo = memo.TopologicalClasses();
  std::vector<size_t> position(memo.num_classes(), topo.size());
  for (size_t i = 0; i < topo.size(); ++i) position[topo[i]] = i;
  std::vector<const ConsolidatedPlan::MatNode*> ordered;
  for (const auto& m : plan.materialized) ordered.push_back(&m);
  std::sort(ordered.begin(), ordered.end(),
            [&](const ConsolidatedPlan::MatNode* a,
                const ConsolidatedPlan::MatNode* b) {
              return position[memo.Find(a->eq)] < position[memo.Find(b->eq)];
            });
  return ordered;
}

/// The consolidated-plan protocol, once for both engines: every chosen class
/// is computed once into the run's store (or served from the cross-batch
/// cache), then the batch root's queries execute and read it back.
template <typename Engine>
Result<ExecResult> RunConsolidated(const EngineObsNames& names, Memo* memo,
                                   const DataSet* data,
                                   const ConsolidatedPlan& plan,
                                   const ExecOptions& exec) {
  MatStore store(exec.mat_store());
  Engine engine(memo, data, exec, &store);
  SharedSegmentCache* cache = exec.shared_cache;
  TraceSpan batch_span(TracerOf(exec.obs), "execute_consolidated",
                       names.category);
  if (batch_span.active()) {
    batch_span.AddNum("materialized",
                      static_cast<double>(plan.materialized.size()));
    batch_span.AddNum("queries",
                      static_cast<double>(plan.root_plan->children.size()));
  }
  ExecResult out;
  std::unordered_map<EqId, uint64_t> fingerprints;
  std::unordered_map<EqId, double> compute_ms;
  // Seed the eviction weights before any segment lands: a segment with many
  // reads still ahead of it is the last one the budget pushes to disk.
  const std::unordered_map<EqId, double> expected_reads =
      ExpectedSegmentReads(*memo, plan);
  for (const auto& [eq, reads] : expected_reads) {
    store.SetExpectedReads(eq, reads);
  }
  for (const ConsolidatedPlan::MatNode* m : ChildrenFirst(*memo, plan)) {
    TraceSpan span(TracerOf(exec.obs), "materialize", names.category);
    ScopedTimer metric(MetricsOf(exec.obs), names.materialize_metric);
    const EqId eq = memo->Find(m->eq);
    const uint64_t fp = ClassFingerprint(*memo, eq, &fingerprints);
    ColumnBatch segment;
    // Cross-batch semantic cache: a structurally identical segment from an
    // earlier batch serves this class without recomputation. The schema
    // guard rejects fingerprint collisions between classes with different
    // attribute lists.
    const bool hit = cache != nullptr && cache->Lookup(fp, &segment) &&
                     segment.names == memo->Attributes(eq);
    if (hit) {
      compute_ms[eq] = 0.0;
      ++out.cross_batch_hits;
    } else {
      WallTimer timer;
      MQO_ASSIGN_OR_RETURN(segment, engine.ComputeSegment(m->compute_plan));
      compute_ms[eq] = timer.ElapsedMillis();
    }
    // Observed cardinality of the shared subexpression: later optimizations
    // match it by structural fingerprint and estimate against reality.
    out.feedback.Record(fp, static_cast<double>(segment.num_rows));
    if (span.active()) {
      span.AddNum("eq", eq);
      span.AddNum("rows", static_cast<double>(segment.num_rows));
      if (hit) {
        span.AddNum("cross_batch_hit", 1);
      } else {
        span.AddNum("bytes", static_cast<double>(segment.ByteSize()));
      }
    }
    if (cache != nullptr && !hit) {
      // Publish for later batches (COW copy: shares payloads, no deep copy).
      // First writer wins; losing the race or failing admission is harmless.
      auto reads = expected_reads.find(eq);
      cache->Insert(fp, ColumnBatch(segment), ClassBaseTables(*memo, eq),
                    reads == expected_reads.end() ? 0.0 : reads->second);
    }
    MQO_RETURN_NOT_OK(store.Put(eq, std::move(segment)));
  }
  if (plan.root_plan->op != PhysOp::kBatchRoot) {
    return Status::InvalidArgument("root plan is not a batch root");
  }
  for (const auto& child : plan.root_plan->children) {
    TraceSpan query_span(TracerOf(exec.obs), "query", names.category);
    MQO_ASSIGN_OR_RETURN(NamedRows rows, engine.Execute(child));
    if (query_span.active()) {
      query_span.AddNum("index", static_cast<double>(out.results.size()));
      query_span.AddNum("rows", static_cast<double>(rows.rows.size()));
    }
    out.results.push_back(std::move(rows));
  }
  batch_span.End();
  out.store_stats = store.stats();
  out.store_bytes = store.bytes_used();
  for (const auto& [key, t] : store.Telemetry()) {
    const EqId eq = static_cast<EqId>(key);
    SegmentRuntime r;
    r.eq = eq;
    auto fp = fingerprints.find(eq);
    if (fp != fingerprints.end()) r.fingerprint = fp->second;
    r.actual_rows = t.rows;
    auto cm = compute_ms.find(eq);
    if (cm != compute_ms.end()) r.compute_ms = cm->second;
    r.reads = t.reads;
    r.reloads = t.reloads;
    r.bytes = static_cast<int64_t>(t.bytes);
    r.ever_spilled = t.ever_spilled;
    out.segments.push_back(r);
  }
  std::sort(out.segments.begin(), out.segments.end(),
            [](const SegmentRuntime& a, const SegmentRuntime& b) {
              return a.eq < b.eq;
            });
  return out;
}

}  // namespace

Result<ExecResult> ExecuteConsolidatedResult(ExecBackend backend, Memo* memo,
                                             const DataSet* data,
                                             const ConsolidatedPlan& plan,
                                             const ExecOptions& exec) {
  if (backend == ExecBackend::kVector) {
    return RunConsolidated<VectorPlanExecutor>(
        {"vexec", "vexec.materialize_ms"}, memo, data, plan, exec);
  }
  // Both engines run under the same store budget but keep their own segment
  // formats: vexec's segments are FOR- and dictionary-encoded, the row
  // oracle's are plain decoded columns, so the row engine spills first.
  return RunConsolidated<PlanExecutor>({"exec", "exec.materialize_ms"}, memo,
                                       data, plan, exec);
}

Result<NamedRows> ExecutePlanWith(ExecBackend backend, Memo* memo,
                                  const DataSet* data, const PlanNodePtr& plan,
                                  const ExecOptions& exec) {
  if (backend == ExecBackend::kVector) {
    VectorPlanExecutor executor(memo, data, exec);
    return executor.Execute(plan);
  }
  PlanExecutor executor(memo, data, exec);
  return executor.Execute(plan);
}

}  // namespace mqo
