#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "lqdag/rules.h"
#include "mqo/materialization_problem.h"
#include "mqo/mqo_algorithms.h"
#include "obs/explain.h"
#include "parser/parser.h"
#include "physical/plan.h"
#include "stats/feedback.h"

namespace mqobench {

using mqo::EqId;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::Finish(int index, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end_ns;
}

std::string SpanRecorder::ToChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t origin = 0;
  for (const Span& s : spans_) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":%llu,\"tid\":%d,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"batch\":%llu}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  (s.start_ns - origin) / 1e3, (s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.batch), s.client, i,
                  s.parent, static_cast<unsigned long long>(s.batch));
    out += buf;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

Replayer::Replayer(const mqo::Catalog* catalog, const mqo::DataSet* data,
                   mqo::MqoOptions options, SpanRecorder* spans)
    : catalog_(catalog), data_(data), options_(std::move(options)),
      spans_(spans) {
  mqo::AnalyzeOptions analyze;
  analyze.num_threads = options_.exec.num_threads;
  registry_.Reset(data_, analyze);
  if (options_.shared_segment_cache) {
    mqo::MatStoreOptions cache_options = options_.exec.mat_store();
    if (options_.shared_cache_budget_bytes > 0) {
      cache_options.budget_bytes = options_.shared_cache_budget_bytes;
    }
    cache_ = std::make_unique<mqo::SharedSegmentCache>(cache_options);
  }
}

double Replayer::AnalyzeAll() {
  const int64_t t0 = NowNanos();
  for (const std::string& table : catalog_->TableNames()) {
    registry_.Get(table);
  }
  return (NowNanos() - t0) / 1e6;
}

namespace {

/// Times one stage: runs `fn`, records a child span of `root`, returns ms.
template <typename Fn>
double Stage(SpanRecorder* spans, const char* name, int root,
             uint64_t batch, int client, Fn&& fn) {
  const int64_t t0 = NowNanos();
  fn();
  const int64_t t1 = NowNanos();
  spans->Add({name, t0, t1, root, batch, client});
  return (t1 - t0) / 1e6;
}

}  // namespace

mqo::Result<ReplayOutcome> Replayer::Run(const std::vector<std::string>& sql,
                                         uint64_t batch_id, int client) {
  ReplayOutcome out;
  ReplayStages& st = out.stages;
  const int64_t start = NowNanos();
  const int root = spans_->Add({"batch", start, start, -1, batch_id, client});

  mqo::MqoOptions effective = options_;
  effective.exec.shared_cache = cache_.get();
  effective.exec.obs = nullptr;
  mqo::CardinalityFeedback snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = feedback_;
  }

  // parser: ParseBatch.
  std::vector<mqo::LogicalExprPtr> queries;
  mqo::Status status;
  st.parse_ms = Stage(spans_, "parser", root, batch_id, client, [&] {
    for (const auto& s : sql) {
      auto parsed = mqo::ParseQuery(s, *catalog_);
      if (!parsed.ok()) {
        status = parsed.status();
        return;
      }
      queries.push_back(parsed.ValueOrDie());
    }
  });
  MQO_RETURN_NOT_OK(status);

  // lqdag: InsertBatch + ExpandMemo.
  mqo::Memo memo(catalog_);
  st.lqdag_ms = Stage(spans_, "lqdag", root, batch_id, client, [&] {
    memo.InsertBatch(queries);
    auto expanded = mqo::ExpandMemo(&memo, effective.expansion);
    if (!expanded.ok()) {
      status = expanded.status();
      return;
    }
    st.classes = expanded.ValueOrDie().classes_after;
  });
  MQO_RETURN_NOT_OK(status);

  // optimizer setup: the BatchOptimizer and the materialization problem
  // (universe, admission control) exactly as OptimizeIntoMemo builds them.
  mqo::BatchOptimizerOptions oo;
  oo.stats.mode = mqo::ResolveStatsMode(effective.stats_mode);
  oo.stats.table_stats = &registry_;
  oo.stats.feedback = &snapshot;
  oo.num_threads =
      effective.exec.num_threads > 1 ? effective.exec.num_threads : 0;
  std::unique_ptr<mqo::BatchOptimizer> optimizer;
  std::unique_ptr<mqo::MaterializationProblem> problem;
  st.optimizer_setup_ms =
      Stage(spans_, "optimizer.setup", root, batch_id, client, [&] {
        if (cache_ != nullptr) {
          oo.cached_fingerprints = cache_->FingerprintSnapshot();
        }
        optimizer = std::make_unique<mqo::BatchOptimizer>(
            &memo, mqo::CostModel(effective.cost_params), oo);
        problem = std::make_unique<mqo::MaterializationProblem>(
            optimizer.get());
      });

  // mqo: MarginalGreedy over the benefit function.
  mqo::MqoResult result;
  st.greedy_ms = Stage(spans_, "mqo.greedy", root, batch_id, client, [&] {
    result = mqo::RunMarginalGreedy(problem.get(), effective.marginal_options);
  });
  st.function_evals = static_cast<double>(result.function_evals);
  st.bc_evals = static_cast<double>(result.optimizations);
  st.materialized = result.num_materialized;
  st.predicted_benefit = result.benefit;

  // optimizer: the consolidated plan and its rendering.
  mqo::ConsolidatedPlan plan;
  st.plan_ms = Stage(spans_, "optimizer.plan", root, batch_id, client, [&] {
    plan = optimizer->Plan(result.materialized);
    out.consolidated_plan = mqo::PlanToString(plan.root_plan);
    for (const auto& m : plan.materialized) {
      (void)mqo::PlanToString(m.compute_plan);
    }
  });

  // mqo: the EXPLAIN snapshot — per chosen class its estimates and the
  // marginal bc(S \ {e}) − bc(S), as CaptureClassEstimates computes it.
  std::vector<mqo::MatClassEstimate> estimates;
  st.explain_ms = Stage(spans_, "mqo.explain", root, batch_id, client, [&] {
    const std::set<EqId>& chosen = result.materialized;
    if (chosen.empty()) return;
    const auto expected = mqo::ExpectedSegmentReads(memo, plan);
    std::unordered_map<EqId, uint64_t> fps;
    optimizer->SetIncrementalBase(chosen);
    const double bc_full = optimizer->BestCost(chosen);
    for (EqId eq : chosen) {
      const EqId c = memo.Find(eq);
      mqo::MatClassEstimate est;
      est.eq = c;
      est.fingerprint = mqo::ClassFingerprint(memo, c, &fps);
      std::vector<mqo::OpId> ops = memo.ClassOps(c);
      if (!ops.empty()) est.label = memo.op(ops.front()).ToString();
      est.est_rows = optimizer->stats()->ClassStats(c).rows;
      auto reads = expected.find(c);
      if (reads != expected.end()) est.expected_reads = reads->second;
      est.footprint_bytes = optimizer->MatFootprintBytes(c);
      std::set<EqId> without = chosen;
      without.erase(eq);
      est.predicted_benefit_ms = optimizer->BestCost(without) - bc_full;
      estimates.push_back(est);
    }
    std::sort(estimates.begin(), estimates.end(),
              [](const mqo::MatClassEstimate& a,
                 const mqo::MatClassEstimate& b) { return a.eq < b.eq; });
  });
  st.costings = static_cast<double>(optimizer->num_costings());

  // vexec: the consolidated plan on the vector engine.
  mqo::ExecResult executed;
  st.execute_ms = Stage(spans_, "vexec.execute", root, batch_id, client, [&] {
    auto r = mqo::ExecuteConsolidatedResult(effective.backend, &memo, data_,
                                            plan, effective.exec);
    if (!r.ok()) {
      status = r.status();
      return;
    }
    executed = std::move(r).ValueOrDie();
  });
  MQO_RETURN_NOT_OK(status);

  // mqo facade: EXPLAIN ANALYZE assembly and the feedback merge.
  st.report_ms = Stage(spans_, "session.report", root, batch_id, client, [&] {
    std::unordered_map<int, const mqo::SegmentRuntime*> by_eq;
    for (const auto& s : executed.segments) by_eq[s.eq] = &s;
    std::vector<mqo::ExplainEntry> entries;
    for (const auto& est : estimates) {
      mqo::ExplainEntry entry;
      entry.est = est;
      auto it = by_eq.find(est.eq);
      if (it != by_eq.end()) {
        entry.run = *it->second;
        entry.executed = true;
        entry.realized_saved_ms =
            entry.run.compute_ms *
            static_cast<double>(std::max<int64_t>(entry.run.reads - 1, 0));
      }
      st.realized_saved_ms += entry.realized_saved_ms;
      entries.push_back(entry);
    }
    (void)mqo::RenderExplainAnalyze(entries);
    std::lock_guard<std::mutex> lock(mu_);
    feedback_.MergeFrom(executed.feedback);
  });
  for (const auto& s : executed.segments) {
    st.materialize_ms += s.compute_ms;
    st.segment_rows += static_cast<double>(s.actual_rows);
  }
  out.results = std::move(executed.results);

  const int64_t end = NowNanos();
  spans_->Finish(root, end);
  st.total_ms = (end - start) / 1e6;
  return out;
}

}  // namespace mqobench
