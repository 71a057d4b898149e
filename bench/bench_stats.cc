// Statistics subsystem benchmark: estimation accuracy (q-error) of the
// collected-statistics mode against the catalog-guess constants, analyze
// throughput of the morsel-parallel AnalyzeTable pass, and the feedback
// loop's effect on the optimizer-side eviction/admission inputs.
//
//   q-error   — for each workload (TPC-D Q3/Q9 constant-variant pairs,
//               example1) and each scan/filter/join class of the expanded
//               DAG: max(estimate/actual, actual/estimate). Collected mode
//               must not lose to the guesses (exit code enforces it).
//   analyze   — rows/sec of AnalyzeTable over a generated lineitem table at
//               1..hw threads (histograms + sketches + min/max in one pass).
//   feedback  — after executing the greedy consolidated plan, re-optimizing
//               with observed cardinalities: the materialized footprint and
//               the expected-reads × bytes eviction-weight input re-seed
//               from reality (second-batch economics of an MqoSession).
//
// Usage: bench_stats [analyze_rows ...]   (default: 100000; pass a tiny
// count, e.g. `bench_stats 5000`, for CI smoke runs). Writes
// machine-readable records to BENCH_stats.json.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/bench_args.h"
#include "bench_util/bench_json.h"
#include "bench_util/table_printer.h"
#include "catalog/tpcd.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "lqdag/rules.h"
#include "mqo/mqo_algorithms.h"
#include "stats/qerror.h"
#include "stats/table_stats.h"
#include "vexec/backend.h"
#include "workload/example1.h"
#include "workload/tpcd_queries.h"

using namespace mqo;

namespace {

struct Workload {
  std::string name;
  Catalog catalog;
  std::vector<LogicalExprPtr> queries;
  DataGenOptions gen;
};

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "tpcd-q3x2";
    w.catalog = MakeTpcdCatalog(1);
    w.queries = {MakeQ3(0), MakeQ3(1)};
    w.gen.max_rows_per_table = 40;
    w.gen.domain_cap = 30;
    w.gen.seed = 77;
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "tpcd-q9x2";
    w.catalog = MakeTpcdCatalog(1);
    w.queries = {MakeQ9(0), MakeQ9(1)};
    w.gen.max_rows_per_table = 50;
    w.gen.domain_cap = 25;
    w.gen.seed = 77;
    out.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "example1";
    w.catalog = MakeExample1Catalog();
    w.queries = MakeExample1Queries();
    w.gen.max_rows_per_table = 40;
    w.gen.domain_cap = 60;
    w.gen.seed = 77;
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== statistics subsystem: q-error, analyze throughput, "
              "feedback ===\n\n");
  const std::vector<int> analyze_rows = ParseRowCounts(argc, argv, {100000});
  BenchJsonWriter json;
  int failures = 0;

  // ---- Estimation accuracy --------------------------------------------------
  TablePrinter qtable({"workload", "mode", "classes", "median q-err",
                       "median q-err filters", "median q-err joins"});
  for (Workload& w : MakeWorkloads()) {
    Memo memo(&w.catalog);
    memo.InsertBatch(w.queries);
    if (!ExpandMemo(&memo).ok()) return 1;
    DataSet data = GenerateData(w.catalog, w.gen);
    TableStatsRegistry registry(&data);
    double medians[2] = {0.0, 0.0};
    for (int collected = 0; collected < 2; ++collected) {
      StatsOptions opts;
      opts.mode = collected ? StatsMode::kCollected : StatsMode::kCatalogGuess;
      opts.table_stats = collected ? &registry : nullptr;
      StatsEstimator est(&memo, opts);
      const QErrors q = ComputeQErrors(&memo, data, &est);
      const std::vector<double> all = q.All();
      medians[collected] = Median(all);
      const char* mode = StatsModeToString(est.mode());
      qtable.AddRow({w.name, mode, std::to_string(all.size()),
                     FormatDouble(Median(all), 2),
                     FormatDouble(Median(q.filters), 2),
                     FormatDouble(Median(q.joins), 2)});
      json.AddRecord({JStr("bench", "qerror"), JStr("workload", w.name),
                      JStr("mode", mode),
                      JNum("classes", static_cast<double>(all.size())),
                      JNum("median_qerror", Median(all)),
                      JNum("median_qerror_filters", Median(q.filters)),
                      JNum("median_qerror_joins", Median(q.joins))});
    }
    // Collected statistics must not lose to the magic numbers.
    if (medians[1] > medians[0]) ++failures;
  }
  qtable.Print();

  // ---- Analyze throughput ---------------------------------------------------
  std::printf("\n");
  TablePrinter atable({"rows", "threads", "analyze (ms)", "rows/sec"});
  for (int rows : analyze_rows) {
    Catalog catalog = MakeTpcdCatalog(1);
    DataGenOptions gen;
    gen.max_rows_per_table = rows;
    gen.seed = 13;
    DataSet data = GenerateData(catalog, gen);
    const ColumnStore* lineitem = data.GetTable("lineitem").ValueOrDie();
    for (int threads : BenchThreadSweep()) {
      AnalyzeOptions options;
      options.num_threads = threads;
      WallTimer timer;
      TableStatsData stats = AnalyzeTable(*lineitem, options);
      const double ms = timer.ElapsedMillis();
      const double per_sec = ms > 0.0 ? 1000.0 * rows / ms : 0.0;
      if (stats.row_count != static_cast<double>(lineitem->num_rows())) {
        ++failures;
      }
      atable.AddRow({std::to_string(rows), std::to_string(threads),
                     FormatDouble(ms, 2), FormatDouble(per_sec, 0)});
      json.AddRecord({JStr("bench", "analyze"),
                      JNum("rows", static_cast<double>(rows)),
                      JNum("threads", static_cast<double>(threads)),
                      JNum("analyze_ms", ms), JNum("rows_per_sec", per_sec)});
    }
  }
  atable.Print();

  // ---- Feedback: re-seeded second-batch economics ---------------------------
  std::printf("\n");
  TablePrinter ftable({"workload", "node", "observed rows",
                       "footprint before (KB)", "footprint after (KB)",
                       "weight before", "weight after"});
  for (Workload& w : MakeWorkloads()) {
    Memo memo(&w.catalog);
    memo.InsertBatch(w.queries);
    if (!ExpandMemo(&memo).ok()) return 1;
    DataSet data = GenerateData(w.catalog, w.gen);
    BatchOptimizer before(&memo, CostModel());
    MaterializationProblem problem(&before);
    MqoResult result = RunGreedy(&problem);
    if (result.materialized.empty()) continue;
    ConsolidatedPlan plan = before.Plan(result.materialized);
    auto executed =
        ExecuteConsolidatedResult(ExecBackend::kVector, &memo, &data, plan);
    if (!executed.ok()) return 1;
    const CardinalityFeedback& feedback = executed.ValueOrDie().feedback;

    BatchOptimizerOptions with_feedback;
    with_feedback.stats.feedback = &feedback;
    BatchOptimizer after(&memo, CostModel(), with_feedback);
    const auto reads = ExpectedSegmentReads(memo, plan);
    std::unordered_map<EqId, uint64_t> fp_cache;
    for (EqId e : result.materialized) {
      const double* observed =
          feedback.Find(ClassFingerprint(memo, e, &fp_cache));
      const double fb = before.MatFootprintBytes(e);
      const double fa = after.MatFootprintBytes(e);
      auto it = reads.find(memo.Find(e));
      const double r = it != reads.end() ? it->second : 0.0;
      // The eviction weight MatStore uses is expected reads x bytes; the
      // observed cardinality re-seeds the bytes half of it.
      if (fa > fb) ++failures;
      ftable.AddRow({w.name, "E" + std::to_string(memo.Find(e)),
                     FormatDouble(observed != nullptr ? *observed : -1.0, 0),
                     FormatDouble(fb / 1024.0, 1), FormatDouble(fa / 1024.0, 1),
                     FormatDouble(r * fb / 1024.0, 1),
                     FormatDouble(r * fa / 1024.0, 1)});
      json.AddRecord(
          {JStr("bench", "feedback"), JStr("workload", w.name),
           JNum("eq", static_cast<double>(memo.Find(e))),
           JNum("observed_rows", observed != nullptr ? *observed : -1.0),
           JNum("expected_reads", r), JNum("footprint_bytes_before", fb),
           JNum("footprint_bytes_after", fa),
           JNum("eviction_weight_before", r * fb),
           JNum("eviction_weight_after", r * fa)});
    }
  }
  ftable.Print();

  const bool wrote = json.WriteFile("BENCH_stats.json");
  std::printf("\ncollected <= guess on every workload, feedback shrinks "
              "footprints: %s (%d violations)\n",
              failures == 0 ? "OK" : "VIOLATED", failures);
  std::printf("BENCH_stats.json: %s (%zu records)\n",
              wrote ? "written" : "WRITE FAILED", json.num_records());
  return failures == 0 && wrote ? 0 : 1;
}
