// Thread-scaling of the parallel hash join and the pipelined engine.
//
// Two surfaces, both swept over 1/2/4/hardware-max threads:
//   1. kernel: HashJoinBatch on lineitem ⋈ orders (parallel CSR
//      build + morsel-parallel probe) — the isolated operator curve;
//   2. engine: the consolidated TPC-D Q9 batch on the vectorized backend —
//      join build/probe and aggregation pipelines end-to-end, the
//      configuration whose sharing wins the MQO layer proves.
// Every parallel run is checked row-identical to the serial run (the
// pipeline driver's determinism contract), and all records land in
// BENCH_parallel_join.json.
//
// Usage: bench_parallel_join [rows_per_table ...]   (default: 2000 8000;
// pass tiny counts for CI smoke runs).

#include <algorithm>
#include <cstdio>

#include "bench_util/bench_args.h"
#include "bench_util/bench_json.h"
#include "bench_util/table_printer.h"
#include "catalog/tpcd.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "exec/row_ops.h"
#include "lqdag/rules.h"
#include "mqo/mqo_algorithms.h"
#include "storage/table_reader.h"
#include "vexec/backend.h"
#include "workload/tpcd_queries.h"

using namespace mqo;

int main(int argc, char** argv) {
  std::printf("=== parallel join + pipelined engine thread scaling ===\n\n");
  const std::vector<int> row_counts = ParseRowCounts(argc, argv, {2000, 8000});

  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch({MakeQ9(0), MakeQ9(1)});
  auto expanded = ExpandMemo(&memo);
  if (!expanded.ok()) {
    std::printf("expansion failed: %s\n", expanded.status().ToString().c_str());
    return 1;
  }
  BatchOptimizer optimizer(&memo, CostModel());
  MaterializationProblem problem(&optimizer);
  MqoResult marginal = RunMarginalGreedy(&problem);
  const ConsolidatedPlan mqo_plan = optimizer.Plan(marginal.materialized);

  TablePrinter table({"rows/table", "surface", "threads", "time (ms)",
                      "speedup vs 1T"});
  BenchJsonWriter json;
  constexpr int kReps = 3;
  int failures = 0;
  for (int rows_per_table : row_counts) {
    DataGenOptions gen;
    gen.max_rows_per_table = rows_per_table;
    gen.domain_cap = std::max(1, rows_per_table / 4);
    gen.seed = 2026;
    DataSet data = GenerateData(catalog, gen);

    // Surface 1: the join kernel on the two largest relations.
    const ColumnBatch lineitem =
        TableReader(data.GetTable("lineitem").ValueOrDie()).Columnar("l");
    const ColumnBatch orders =
        TableReader(data.GetTable("orders").ValueOrDie()).Columnar("o");
    JoinCondition cond;
    cond.left = ColumnRef("l", "l_orderkey");
    cond.right = ColumnRef("o", "o_orderkey");
    const JoinPredicate join_pred({cond});
    double kernel_serial_ms = 0.0;
    std::vector<NamedRows> kernel_serial;
    for (int threads : BenchThreadSweep()) {
      double best_ms = 0.0;
      ColumnBatch joined_batch;
      for (int rep = 0; rep < kReps; ++rep) {
        WallTimer timer;
        auto joined = HashJoinBatch(lineitem, orders, join_pred, threads);
        const double ms = timer.ElapsedMillis();
        if (!joined.ok()) {
          std::printf("join failed: %s\n", joined.status().ToString().c_str());
          return 1;
        }
        if (rep == 0 || ms < best_ms) best_ms = ms;
        joined_batch = std::move(joined).ValueOrDie();
      }
      const size_t out_rows = joined_batch.num_rows;
      if (threads == 1) {
        kernel_serial_ms = best_ms;
        kernel_serial = {BatchToRows(joined_batch)};
      } else if (!SameResultSets(kernel_serial,
                                 {BatchToRows(joined_batch)})) {
        ++failures;  // determinism contract broken: not row-identical
      }
      const double speedup = kernel_serial_ms / std::max(best_ms, 1e-9);
      table.AddRow({std::to_string(rows_per_table), "hash-join kernel",
                    std::to_string(threads), FormatDouble(best_ms, 2),
                    FormatDouble(speedup, 2) + "x"});
      json.AddRecord({JStr("bench", "parallel_join"),
                      JStr("surface", "hash_join_kernel"),
                      JNum("rows_per_table", rows_per_table),
                      JNum("threads", threads), JNum("time_ms", best_ms),
                      JNum("join_rows", static_cast<double>(out_rows)),
                      JNum("speedup_vs_1t", speedup)});
    }

    // Surface 2: the consolidated Q9 batch end-to-end (joins + aggregation
    // pipelines, materialized-segment reuse).
    double engine_serial_ms = 0.0;
    std::vector<NamedRows> serial_results;
    for (int threads : BenchThreadSweep()) {
      ExecOptions exec;
      exec.num_threads = threads;
      double best_ms = 0.0;
      std::vector<NamedRows> results;
      for (int rep = 0; rep < kReps; ++rep) {
        WallTimer timer;
        auto executed = ExecuteConsolidatedWith(ExecBackend::kVector, &memo,
                                                &data, mqo_plan, exec);
        const double ms = timer.ElapsedMillis();
        if (!executed.ok()) {
          std::printf("execution failed: %s\n",
                      executed.status().ToString().c_str());
          return 1;
        }
        if (rep == 0 || ms < best_ms) best_ms = ms;
        results = std::move(executed).ValueOrDie();
      }
      if (threads == 1) {
        engine_serial_ms = best_ms;
        serial_results = results;
      } else if (!SameResultSets(serial_results, results)) {
        ++failures;
      }
      const double speedup = engine_serial_ms / std::max(best_ms, 1e-9);
      table.AddRow({std::to_string(rows_per_table), "Q9 MQO batch",
                    std::to_string(threads), FormatDouble(best_ms, 2),
                    FormatDouble(speedup, 2) + "x"});
      json.AddRecord({JStr("bench", "parallel_join"),
                      JStr("surface", "q9_consolidated"),
                      JNum("rows_per_table", rows_per_table),
                      JNum("threads", threads), JNum("time_ms", best_ms),
                      JNum("speedup_vs_1t", speedup)});
    }
  }
  table.Print();
  const bool json_ok = json.WriteFile("BENCH_parallel_join.json");
  std::printf("\nresults identical across thread counts: %s; %zu records -> "
              "BENCH_parallel_join.json%s\n",
              failures == 0 ? "yes" : "NO (bug!)", json.num_records(),
              json_ok ? "" : " (write FAILED)");
  return failures == 0 && json_ok ? 0 : 1;
}
