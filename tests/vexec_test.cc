// Differential verification of the vectorized columnar engine against the
// row engine: for the tiny catalog, the TPC-D workload, and example1, the
// two independent implementations must produce bag-equal (canonicalized)
// results for standalone plans and for consolidated MQO plans under every
// selection algorithm — materialization and engine choice are performance
// decisions and must never change answers. Plus unit tests of the columnar
// format and kernels against their row_ops counterparts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "catalog/tpcd.h"
#include "exec/row_ops.h"
#include "lqdag/rules.h"
#include "mqo/facade.h"
#include "obs/obs.h"
#include "obs/trace_check.h"
#include "vexec/backend.h"
#include "vexec/pipeline.h"
#include "workload/example1.h"
#include "workload/tpcd_queries.h"

namespace mqo {
namespace {

using Algorithm = MqoOptions::Algorithm;

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kMarginalGreedy, Algorithm::kGreedy, Algorithm::kVolcano};

MqoResult RunAlgorithm(Algorithm alg, MaterializationProblem* problem) {
  switch (alg) {
    case Algorithm::kMarginalGreedy:
      return RunMarginalGreedy(problem);
    case Algorithm::kGreedy:
      return RunGreedy(problem);
    case Algorithm::kVolcano:
      return RunVolcano(problem);
  }
  return {};
}

/// Query-root classes of the batch (children of the Batch operator).
std::vector<EqId> QueryRoots(const Memo& memo) {
  std::vector<EqId> roots;
  for (OpId oid : memo.ClassOps(memo.root())) {
    const MemoOp& op = memo.op(oid);
    if (op.kind != LogicalOp::kBatch) continue;
    for (EqId c : op.children) roots.push_back(memo.Find(c));
    break;
  }
  return roots;
}

void ExpectSameRows(const NamedRows& expected, const NamedRows& actual,
                    const std::string& context) {
  ASSERT_EQ(expected.columns.size(), actual.columns.size()) << context;
  ASSERT_EQ(expected.rows.size(), actual.rows.size()) << context;
  for (size_t r = 0; r < expected.rows.size(); ++r) {
    for (size_t c = 0; c < expected.columns.size(); ++c) {
      ASSERT_TRUE(ValueEq(expected.rows[r][c], actual.rows[r][c]))
          << context << ": row " << r << " col "
          << expected.columns[c].ToString();
    }
  }
}

/// Vector-engine configurations the differential suite must match the row
/// engine under: serial, and morsel-parallel pipelines at 2 and 8 threads.
/// The morsel sizes are tiny so the small test tables split into several
/// morsels and the parallel build/probe/aggregate merge paths are genuinely
/// exercised (8 threads over 4-row morsels oversubscribes scheduling to
/// shake out ordering assumptions).
std::vector<ExecOptions> VectorConfigs() {
  ExecOptions serial;
  ExecOptions two;
  two.num_threads = 2;
  two.morsel_rows = 8;
  ExecOptions eight;
  eight.num_threads = 8;
  eight.morsel_rows = 4;
  return {serial, two, eight};
}

/// The differential check for one workload: row and vectorized execution
/// (at every thread count) must agree on every standalone per-query plan and
/// on the consolidated plan chosen by every MQO algorithm (plus the
/// no-sharing plan). The optimizer honours MQO_STATS_MODE: the CI
/// stats-collected leg re-runs the whole suite on data-driven statistics
/// (different plans, identical answers — statistics are a performance
/// decision, never a semantic one).
void CheckBackendsAgreeOn(Memo* memo, const DataSet& data) {
  TableStatsRegistry registry(&data);
  BatchOptimizerOptions optimizer_options;
  if (ResolveStatsMode(StatsMode::kDefault) == StatsMode::kCollected) {
    optimizer_options.stats.mode = StatsMode::kCollected;
    optimizer_options.stats.table_stats = &registry;
  }
  BatchOptimizer optimizer(memo, CostModel(), optimizer_options);
  MaterializationProblem problem(&optimizer);
  const std::vector<EqId> roots = QueryRoots(*memo);
  ASSERT_FALSE(roots.empty());

  // Standalone plans: each query's locally optimal plan, both engines.
  {
    ConsolidatedPlan volcano = optimizer.Plan({});
    for (size_t q = 0; q < volcano.root_plan->children.size(); ++q) {
      const PlanNodePtr& plan = volcano.root_plan->children[q];
      auto row = ExecutePlanWith(ExecBackend::kRow, memo, &data, plan);
      ASSERT_TRUE(row.ok()) << row.status().ToString();
      for (const ExecOptions& exec : VectorConfigs()) {
        auto vec =
            ExecutePlanWith(ExecBackend::kVector, memo, &data, plan, exec);
        ASSERT_TRUE(vec.ok()) << vec.status().ToString();
        ExpectSameRows(row.ValueOrDie(), vec.ValueOrDie(),
                       "standalone q" + std::to_string(q) + " t" +
                           std::to_string(exec.num_threads));
      }
    }
  }

  // Consolidated plans under every selection algorithm. Each vector config
  // runs twice: with an unlimited store budget, and with a budget so tiny
  // that every materialized segment is evicted to disk and reloaded —
  // spilling is a performance decision and must never change answers. The
  // row engine gets the same budgeted treatment once per algorithm.
  for (Algorithm alg : kAllAlgorithms) {
    MqoResult result = RunAlgorithm(alg, &problem);
    ConsolidatedPlan plan = optimizer.Plan(result.materialized);
    auto row = ExecuteConsolidatedWith(ExecBackend::kRow, memo, &data, plan);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    const auto& row_results = row.ValueOrDie();
    ASSERT_EQ(row_results.size(), roots.size());
    {
      ExecOptions budgeted;
      budgeted.mat_budget_bytes = 1;  // forces eviction + spill of everything
      auto row_spill = ExecuteConsolidatedWith(ExecBackend::kRow, memo, &data,
                                               plan, budgeted);
      ASSERT_TRUE(row_spill.ok()) << row_spill.status().ToString();
      for (size_t q = 0; q < roots.size(); ++q) {
        ExpectSameRows(row_results[q], row_spill.ValueOrDie()[q],
                       result.algorithm + " q" + std::to_string(q) +
                           " row budgeted");
      }
    }
    for (ExecOptions exec : VectorConfigs()) {
      for (size_t budget : {size_t{0}, size_t{1}}) {
        exec.mat_budget_bytes = budget;
        auto vec = ExecuteConsolidatedWith(ExecBackend::kVector, memo, &data,
                                           plan, exec);
        ASSERT_TRUE(vec.ok()) << vec.status().ToString();
        const auto& vec_results = vec.ValueOrDie();
        ASSERT_EQ(vec_results.size(), roots.size());
        for (size_t q = 0; q < roots.size(); ++q) {
          ExpectSameRows(row_results[q], vec_results[q],
                         result.algorithm + " q" + std::to_string(q) + " t" +
                             std::to_string(exec.num_threads) + " budget " +
                             std::to_string(budget));
        }
      }
    }
  }
}

void CheckBackendsAgree(Memo* memo, const DataGenOptions& gen) {
  CheckBackendsAgreeOn(memo, GenerateData(*memo->catalog(), gen));
}

/// A tiny catalog with overlapping key domains, a fractional double column,
/// and string tags, so the typed columns all get exercised.
Catalog MakeTinyCatalog() {
  Catalog cat;
  for (const char* name : {"t1", "t2", "t3"}) {
    Table t(name, 40);
    t.AddColumn(ColumnDef{"k", ColumnType::kInt, 4, 12, 0, 12});
    t.AddColumn(ColumnDef{"v", ColumnType::kDouble, 8, 8, 0, 8});
    t.AddColumn(ColumnDef{"tag", ColumnType::kString, 8, 4, 0, 4});
    (void)cat.AddTable(std::move(t));
  }
  return cat;
}

JoinCondition KeyJoin(const char* la, const char* ra) {
  JoinCondition c;
  c.left = ColumnRef(la, "k");
  c.right = ColumnRef(ra, "k");
  return c;
}

Comparison Cmp(const char* q, const char* n, CompareOp op, Literal lit) {
  Comparison c;
  c.column = ColumnRef(q, n);
  c.op = op;
  c.literal = std::move(lit);
  return c;
}

AggExpr Agg(AggFunc f, ColumnRef arg = {}) {
  AggExpr a;
  a.func = f;
  a.arg = std::move(arg);
  return a;
}

/// Three queries over the tiny catalog sharing the t1 ⋈ t2 subexpression:
/// a grouped aggregate with string MIN/MAX and COUNT(*), a projection, and a
/// scalar AVG behind a string-equality filter.
std::vector<LogicalExprPtr> MakeTinyQueries() {
  auto join = LogicalExpr::Join(LogicalExpr::Scan("t1"), LogicalExpr::Scan("t2"),
                                JoinPredicate({KeyJoin("t1", "t2")}));
  auto q1 = LogicalExpr::Aggregate(
      LogicalExpr::Select(join,
                          Predicate({Cmp("t1", "v", CompareOp::kLe, 6)})),
      {ColumnRef("t1", "tag")},
      {Agg(AggFunc::kSum, ColumnRef("t2", "v")), Agg(AggFunc::kCount),
       Agg(AggFunc::kMin, ColumnRef("t2", "tag")),
       Agg(AggFunc::kMax, ColumnRef("t2", "k"))});
  auto q2 = LogicalExpr::Project(
      LogicalExpr::Select(join,
                          Predicate({Cmp("t2", "v", CompareOp::kGt, 2)})),
      {ColumnRef("t1", "k"), ColumnRef("t2", "tag")});
  auto q3 = LogicalExpr::Aggregate(
      LogicalExpr::Select(LogicalExpr::Scan("t3"),
                          Predicate({Cmp("t3", "tag", CompareOp::kEq, "s1")})),
      {},
      {Agg(AggFunc::kAvg, ColumnRef("t3", "v")),
       Agg(AggFunc::kMax, ColumnRef("t3", "k"))});
  return {q1, q2, q3};
}

TEST(VexecDifferentialTest, TinyCatalogAllAlgorithms) {
  Catalog catalog = MakeTinyCatalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeTinyQueries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 10;
  gen.seed = 7;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, TinyCatalogEmptySelection) {
  // A predicate no generated row satisfies: scalar aggregation must produce
  // the identity row on both engines, grouped results must be empty.
  Catalog catalog = MakeTinyCatalog();
  auto q = LogicalExpr::Aggregate(
      LogicalExpr::Select(LogicalExpr::Scan("t1"),
                          Predicate({Cmp("t1", "v", CompareOp::kLt, -5)})),
      {},
      {Agg(AggFunc::kSum, ColumnRef("t1", "v")), Agg(AggFunc::kCount),
       Agg(AggFunc::kMin, ColumnRef("t1", "tag"))});
  Memo memo(&catalog);
  memo.InsertBatch({q});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 20;
  gen.seed = 9;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, JoinAggHeavySkewedKeysAllAlgorithms) {
  // Three-table equi-join chain feeding grouped and scalar aggregation, over
  // a tiny key domain so every key repeats heavily: the hash table's bucket
  // lists get long, probes fan out, and group counts stay small while row
  // counts explode — the worst case for the parallel build/probe/aggregate
  // merge order. Two queries share the t1 ⋈ t2 segment, so consolidated
  // plans exercise pipelines reading materialized segments too.
  Catalog catalog = MakeTinyCatalog();
  auto join12 =
      LogicalExpr::Join(LogicalExpr::Scan("t1"), LogicalExpr::Scan("t2"),
                        JoinPredicate({KeyJoin("t1", "t2")}));
  auto join123 = LogicalExpr::Join(join12, LogicalExpr::Scan("t3"),
                                   JoinPredicate({KeyJoin("t2", "t3")}));
  auto q1 = LogicalExpr::Aggregate(
      join123, {ColumnRef("t1", "tag")},
      {Agg(AggFunc::kSum, ColumnRef("t2", "v")), Agg(AggFunc::kCount),
       Agg(AggFunc::kMin, ColumnRef("t3", "tag")),
       Agg(AggFunc::kMax, ColumnRef("t3", "v"))});
  auto q2 = LogicalExpr::Aggregate(
      LogicalExpr::Select(join12,
                          Predicate({Cmp("t1", "v", CompareOp::kLe, 6)})),
      {},
      {Agg(AggFunc::kAvg, ColumnRef("t2", "v")), Agg(AggFunc::kCount)});
  Memo memo(&catalog);
  memo.InsertBatch({q1, q2});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 3;  // heavy key skew
  gen.seed = 21;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, EmptyJoinInputsAllAlgorithms) {
  // One join side filtered down to nothing: the probe pipeline sees empty
  // chunks everywhere, the grouped aggregation above it must come back
  // empty, and the scalar aggregation must still emit its identity row —
  // at every thread count.
  Catalog catalog = MakeTinyCatalog();
  auto empty_left = LogicalExpr::Select(
      LogicalExpr::Scan("t1"), Predicate({Cmp("t1", "v", CompareOp::kLt, -5)}));
  auto join = LogicalExpr::Join(empty_left, LogicalExpr::Scan("t2"),
                                JoinPredicate({KeyJoin("t1", "t2")}));
  auto q1 = LogicalExpr::Aggregate(
      join, {ColumnRef("t2", "tag")},
      {Agg(AggFunc::kSum, ColumnRef("t2", "v")), Agg(AggFunc::kCount)});
  auto q2 = LogicalExpr::Aggregate(
      join, {},
      {Agg(AggFunc::kCount), Agg(AggFunc::kMin, ColumnRef("t1", "tag"))});
  Memo memo(&catalog);
  memo.InsertBatch({q1, q2});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 30;
  gen.domain_cap = 8;
  gen.seed = 31;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, Example1AllAlgorithmsAndSingletons) {
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 60;
  gen.seed = 77;
  CheckBackendsAgree(&memo, gen);

  // Additionally: every shareable singleton materialization choice.
  DataSet data = GenerateData(catalog, gen);
  BatchOptimizer optimizer(&memo, CostModel());
  MaterializationProblem problem(&optimizer);
  const std::vector<EqId> roots = QueryRoots(memo);
  for (EqId e : problem.universe()) {
    ConsolidatedPlan plan = optimizer.Plan({e});
    auto row = ExecuteConsolidatedWith(ExecBackend::kRow, &memo, &data, plan);
    auto vec =
        ExecuteConsolidatedWith(ExecBackend::kVector, &memo, &data, plan);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();
    for (size_t q = 0; q < roots.size(); ++q) {
      ExpectSameRows(row.ValueOrDie()[q], vec.ValueOrDie()[q],
                     "mat E" + std::to_string(e) + " q" + std::to_string(q));
    }
  }
}

TEST(VexecDifferentialTest, TpcdQ3VariantsAllAlgorithms) {
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch({MakeQ3(0), MakeQ3(1)});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 30;
  gen.seed = 77;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, TpcdQ9VariantsAllAlgorithms) {
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch({MakeQ9(0), MakeQ9(1)});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 50;
  gen.domain_cap = 25;
  gen.seed = 77;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, TpcdQ11AggregateChainAllAlgorithms) {
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch(MakeQ11());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 30;
  gen.domain_cap = 25;
  gen.seed = 77;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, TpcdQ15AllAlgorithms) {
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch(MakeQ15());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 30;
  gen.domain_cap = 20;
  gen.seed = 77;
  CheckBackendsAgree(&memo, gen);
}

// ---- String-key joins (dictionary-encoded key kernels) ----------------------

/// Two tables joined ON their string `tag` columns. `tag_distinct` controls
/// the dictionary shape: a small span makes duplicate-heavy keys (shared
/// values, dense groups), a span >= rows makes mostly-distinct keys whose
/// per-table dictionaries differ (exercising the probe-code remap and its
/// absent-key early reject).
Catalog MakeStringKeyCatalog(double tag_distinct) {
  Catalog cat;
  for (const char* name : {"u1", "u2"}) {
    Table t(name, 48);
    t.AddColumn(ColumnDef{"k", ColumnType::kInt, 4, 16, 0, 16});
    t.AddColumn(ColumnDef{"v", ColumnType::kDouble, 8, 8, 0, 8});
    t.AddColumn(
        ColumnDef{"tag", ColumnType::kString, 8, tag_distinct, 0, tag_distinct});
    (void)cat.AddTable(std::move(t));
  }
  return cat;
}

JoinCondition TagJoin(const char* la, const char* ra) {
  JoinCondition c;
  c.left = ColumnRef(la, "tag");
  c.right = ColumnRef(ra, "tag");
  return c;
}

/// Two queries sharing the string-keyed join, so MQO algorithms materialize
/// it and dictionary-encoded columns flow through the MatStore (and, under a
/// 1-byte budget, the spill format).
std::vector<LogicalExprPtr> MakeStringKeyQueries() {
  auto join =
      LogicalExpr::Join(LogicalExpr::Scan("u1"), LogicalExpr::Scan("u2"),
                        JoinPredicate({TagJoin("u1", "u2")}));
  auto q1 = LogicalExpr::Aggregate(
      join, {ColumnRef("u1", "tag")},
      {Agg(AggFunc::kSum, ColumnRef("u2", "v")), Agg(AggFunc::kCount),
       Agg(AggFunc::kMin, ColumnRef("u2", "tag"))});
  auto q2 = LogicalExpr::Project(
      LogicalExpr::Select(join, Predicate({Cmp("u1", "v", CompareOp::kGt, 2)})),
      {ColumnRef("u1", "k"), ColumnRef("u2", "tag")});
  return {q1, q2};
}

TEST(VexecDifferentialTest, StringKeyJoinDuplicateHeavy) {
  // Three tag values over 48 rows per side: every probe hits a fat bucket.
  Catalog catalog = MakeStringKeyCatalog(3);
  Memo memo(&catalog);
  memo.InsertBatch(MakeStringKeyQueries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 48;
  gen.domain_cap = 200;
  gen.seed = 11;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, StringKeyJoinAllDistinctDomains) {
  // Span >= rows: keys are (near-)distinct and the two sides draw different
  // dictionaries, so probes go through the code remap with early rejects.
  Catalog catalog = MakeStringKeyCatalog(300);
  Memo memo(&catalog);
  memo.InsertBatch(MakeStringKeyQueries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 48;
  gen.domain_cap = 300;
  gen.seed = 13;
  CheckBackendsAgree(&memo, gen);
}

TEST(VexecDifferentialTest, StringKeysWithEmptyStrings) {
  // Hand-built tables where "" is a join key and a group key: the empty
  // string must dictionary-encode, hash, join, and aggregate like any other
  // value (it sorts first, so it takes code 0).
  Catalog catalog = MakeStringKeyCatalog(4);
  Memo memo(&catalog);
  memo.InsertBatch(MakeStringKeyQueries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataSet data;
  NamedRows r1;
  r1.columns = {ColumnRef("", "k"), ColumnRef("", "v"), ColumnRef("", "tag")};
  r1.rows = {{Value(1.0), Value(0.5), Value("")},
             {Value(2.0), Value(3.5), Value("a")},
             {Value(3.0), Value(4.5), Value("")},
             {Value(4.0), Value(2.5), Value("b")},
             {Value(5.0), Value(6.5), Value("")}};
  ASSERT_TRUE(data.AddTableRows("u1", r1).ok());
  NamedRows r2;
  r2.columns = r1.columns;
  r2.rows = {{Value(7.0), Value(1.5), Value("")},
             {Value(8.0), Value(9.5), Value("c")},
             {Value(9.0), Value(2.5), Value("")},
             {Value(10.0), Value(0.5), Value("a")}};
  ASSERT_TRUE(data.AddTableRows("u2", r2).ok());
  CheckBackendsAgreeOn(&memo, data);
}

TEST(VexecFacadeTest, OptimizeAndExecuteAgreesAcrossBackends) {
  Catalog catalog = MakeTpcdCatalog(1);
  const std::vector<std::string> batch = {
      "SELECT o_orderdate, SUM(l_extendedprice) FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey AND o_orderdate < date '1995-03-15' "
      "GROUP BY o_orderdate",
      "SELECT o_orderdate, SUM(l_extendedprice) FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey AND o_orderdate < date '1995-06-15' "
      "GROUP BY o_orderdate"};
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 30;
  gen.seed = 11;
  DataSet data = GenerateData(catalog, gen);
  MqoOptions options;
  options.backend = ExecBackend::kRow;
  auto row = OptimizeAndExecuteSqlBatch(catalog, batch, data, options);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  ASSERT_EQ(row.ValueOrDie().results.size(), 2u);
  options.backend = ExecBackend::kVector;
  for (int threads : {1, 4}) {
    options.exec.num_threads = threads;
    auto vec = OptimizeAndExecuteSqlBatch(catalog, batch, data, options);
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();
    ASSERT_EQ(vec.ValueOrDie().results.size(), 2u);
    EXPECT_EQ(vec.ValueOrDie().backend, ExecBackend::kVector);
    for (size_t q = 0; q < 2; ++q) {
      ExpectSameRows(row.ValueOrDie().results[q], vec.ValueOrDie().results[q],
                     "facade q" + std::to_string(q) + " t" +
                         std::to_string(threads));
      EXPECT_GT(row.ValueOrDie().results[q].rows.size(), 0u);
    }
  }
}

/// Numeric arg lookup on a trace event; -1 when absent.
double ArgOf(const TraceEvent& e, const std::string& key) {
  for (const TraceArg& a : e.args) {
    if (a.key == key) return a.num;
  }
  return -1;
}

TEST(VexecTraceTest, OperatorRowCountsDeterministicAcrossThreadCounts) {
  // The traced row counts of every pipeline and operator must be identical
  // for every thread count and morsel size: per-op counters are summed over
  // workers before emission, so the morsel->worker assignment cancels out.
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch({MakeQ9(0), MakeQ9(1)});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  BatchOptimizer optimizer(&memo, CostModel());
  MaterializationProblem problem(&optimizer);
  MqoResult mqo = RunMarginalGreedy(&problem);
  ASSERT_GT(mqo.num_materialized, 0);
  ConsolidatedPlan plan = optimizer.Plan(mqo.materialized);
  DataGenOptions gen;
  gen.max_rows_per_table = 60;
  gen.domain_cap = 25;
  gen.seed = 2026;
  DataSet data = GenerateData(catalog, gen);

  // (event name, two row-count args) in emission order — no timings, no
  // morsel/worker counts (those legitimately vary with the thread count).
  using Signature = std::vector<std::tuple<std::string, double, double>>;
  auto traced_run = [&](const ExecOptions& base) {
    ObsOptions obs_options;
    obs_options.trace = true;
    ObsContext obs(obs_options);
    ExecOptions exec = base;
    exec.obs = &obs;
    auto results = ExecuteConsolidatedWith(ExecBackend::kVector, &memo, &data,
                                           plan, exec);
    EXPECT_TRUE(results.ok()) << results.status().ToString();
    TraceCheckResult check = ValidateChromeTrace(obs.tracer()->ToChromeJson());
    EXPECT_TRUE(check.ok) << check.error;
    Signature sig;
    for (const TraceEvent& e : obs.tracer()->Events()) {
      if (e.cat != "vexec") continue;
      if (e.name.rfind("op.", 0) == 0) {
        sig.emplace_back(e.name, ArgOf(e, "in_rows"), ArgOf(e, "out_rows"));
      } else if (e.name == "pipeline" || e.name == "pipeline.zero_copy") {
        sig.emplace_back(e.name, ArgOf(e, "src_rows"), ArgOf(e, "out_rows"));
      } else if (e.name == "materialize") {
        sig.emplace_back(e.name, ArgOf(e, "eq"), ArgOf(e, "rows"));
      }
    }
    return sig;
  };

  const std::vector<ExecOptions> configs = VectorConfigs();
  const Signature baseline = traced_run(configs[0]);
  ASSERT_FALSE(baseline.empty());
  for (size_t c = 1; c < configs.size(); ++c) {
    const Signature got = traced_run(configs[c]);
    ASSERT_EQ(got.size(), baseline.size())
        << "t" << configs[c].num_threads << " emitted a different event set";
    for (size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(got[i], baseline[i])
          << "event " << i << " diverged at t" << configs[c].num_threads
          << ": " << std::get<0>(baseline[i]) << " vs " << std::get<0>(got[i]);
    }
  }
}

// ---- Bloom-filter pushdown --------------------------------------------------

/// Counter value from a metrics snapshot; 0 when absent.
double CounterOf(ObsContext* obs, const std::string& name) {
  auto snapshot = obs->metrics()->Snapshot();
  auto it = snapshot.find(name);
  return it == snapshot.end() ? 0.0 : it->second.value;
}

/// A probe-source pipeline joining k against a build side covering only
/// [0, build_keys): rows ready for manual RunVecPipeline runs.
struct BloomFixture {
  ColumnBatch probe;
  std::shared_ptr<const JoinHashTable> table;

  BloomFixture(int probe_rows, int build_keys) {
    probe.names = {ColumnRef("p", "k"), ColumnRef("p", "v")};
    ColumnVector pk(VecType::kInt64);
    ColumnVector pv(VecType::kDouble);
    for (int i = 0; i < probe_rows; ++i) {
      pk.ints().push_back(i % 997);  // mostly outside the build domain
      pv.doubles().push_back(static_cast<double>(i % 7));
    }
    probe.columns = {pk, pv};
    probe.num_rows = probe_rows;
    ColumnBatch build;
    build.names = {ColumnRef("b", "k")};
    ColumnVector bk(VecType::kInt64);
    for (int i = 0; i < build_keys; ++i) bk.ints().push_back(i);
    build.columns = {bk};
    build.num_rows = build_keys;
    table = std::make_shared<const JoinHashTable>(
        JoinHashTable::Build(std::move(build), {0}, PipelineOptions{}));
  }

  VecPipeline MakePipeline(bool with_bloom) const {
    VecPipeline pipe;
    pipe.source = probe;
    pipe.keep_idx = {0, 1};
    pipe.chunk_names = probe.names;
    pipe.ops.push_back(std::make_unique<ProbeChunkOp>(
        table, std::vector<int>{0}, std::vector<int>{0, 1},
        std::vector<int>{0},
        std::vector<ColumnRef>{ColumnRef("p", "k"), ColumnRef("p", "v"),
                               ColumnRef("b", "k")}));
    if (with_bloom) {
      pipe.bloom = table->bloom();
      pipe.bloom_key_idx = {0};
    }
    return pipe;
  }
};

TEST(VexecBloomTest, PushdownPreservesJoinOutputExactly) {
  // Most probe keys fall outside [0, 40): the Bloom prefilter (plus the zone
  // min/max shortcut) drops them before materialization, and the join output
  // must be identical — same rows, same order — with the pushdown on or off,
  // at every thread count.
  BloomFixture fx(2000, 40);
  ExecOptions serial;
  auto base = RunVecPipeline(fx.MakePipeline(false), serial);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_GT(base.ValueOrDie().num_rows, 0u);
  for (const ExecOptions& exec : VectorConfigs()) {
    auto got = RunVecPipeline(fx.MakePipeline(true), exec);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const ColumnBatch& b = base.ValueOrDie();
    const ColumnBatch& g = got.ValueOrDie();
    ASSERT_EQ(g.num_rows, b.num_rows) << "t" << exec.num_threads;
    for (size_t c = 0; c < b.columns.size(); ++c) {
      for (size_t r = 0; r < b.num_rows; ++r) {
        ASSERT_TRUE(ColumnVector::CellsEqual(b.columns[c], r, g.columns[c], r))
            << "t" << exec.num_threads << " col " << c << " row " << r;
      }
    }
  }
}

TEST(VexecBloomTest, PrunedRowCountsDeterministicAcrossThreads) {
  // vexec.bloom_rows_pruned counts rows dropped by the per-row predicate —
  // a pure function of each row, so the total is identical for every thread
  // count. Morsel prunes depend on morsel boundaries and may vary.
  BloomFixture fx(2000, 40);
  std::vector<double> pruned;
  for (const ExecOptions& base : VectorConfigs()) {
    ObsOptions obs_options;
    obs_options.metrics = true;
    ObsContext obs(obs_options);
    ExecOptions exec = base;
    exec.obs = &obs;
    auto got = RunVecPipeline(fx.MakePipeline(true), exec);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    pruned.push_back(CounterOf(&obs, "vexec.bloom_rows_pruned"));
  }
  // ~1920 of 2000 rows lie outside [0, 40); the zone+Bloom prefilter must
  // drop nearly all of them (Bloom false positives keep a few percent).
  EXPECT_GE(pruned[0], 1800.0);
  for (size_t i = 1; i < pruned.size(); ++i) {
    EXPECT_EQ(pruned[i], pruned[0]) << "thread config " << i;
  }
}

TEST(VexecBloomTest, DictionaryProbeCountersSurfaceInMetrics) {
  // A string-keyed probe between sides with different dictionaries must
  // report dictionary-kernel rows (vexec.dict_hits) and the remap builds
  // (vexec.dict_remap) when metrics are on.
  ColumnBatch probe;
  probe.names = {ColumnRef("p", "tag")};
  ColumnVector pt(VecType::kString);
  for (int i = 0; i < 64; ++i) pt.strings().push_back("t" + std::to_string(i % 6));
  ASSERT_TRUE(pt.DictEncode());
  probe.columns = {pt};
  probe.num_rows = 64;
  ColumnBatch build;
  build.names = {ColumnRef("b", "tag")};
  ColumnVector bt(VecType::kString);
  for (int i = 0; i < 32; ++i) bt.strings().push_back("t" + std::to_string(i % 4));
  ASSERT_TRUE(bt.DictEncode());
  build.columns = {bt};
  build.num_rows = 32;
  ASSERT_NE(probe.columns[0].dict(), build.columns[0].dict());
  auto table = std::make_shared<const JoinHashTable>(
      JoinHashTable::Build(std::move(build), {0}, PipelineOptions{}));

  VecPipeline pipe;
  pipe.source = probe;
  pipe.keep_idx = {0};
  pipe.chunk_names = probe.names;
  pipe.ops.push_back(std::make_unique<ProbeChunkOp>(
      table, std::vector<int>{0}, std::vector<int>{0}, std::vector<int>{0},
      std::vector<ColumnRef>{ColumnRef("p", "tag"), ColumnRef("b", "tag")}));

  ObsOptions obs_options;
  obs_options.metrics = true;
  ObsContext obs(obs_options);
  ExecOptions exec;
  exec.obs = &obs;
  auto got = RunVecPipeline(pipe, exec);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(got.ValueOrDie().num_rows, 0u);
  EXPECT_EQ(CounterOf(&obs, "vexec.dict_hits"), 64.0);
  EXPECT_EQ(CounterOf(&obs, "vexec.dict_remap"), 1.0);
}

TEST(VexecBloomTest, AbsentKeysInsideBuildRangeRejected) {
  // Even build keys, odd probe keys: every probe key lies inside the build's
  // min/max zone, so only the Bloom bits can reject it. Integer keys leave
  // the low bits of the raw IEEE hash equal; the finalized hash must still
  // give the filter its advertised false-positive rate.
  for (int keys : {1000, 45000}) {
    ColumnBatch build;
    build.names = {ColumnRef("b", "k")};
    ColumnVector bk(VecType::kInt64);
    for (int i = 0; i < keys; ++i) bk.ints().push_back(2 * i);
    build.columns = {bk};
    build.num_rows = keys;
    const JoinHashTable table =
        JoinHashTable::Build(build, {0}, PipelineOptions{});
    ASSERT_NE(table.bloom(), nullptr);
    ColumnBatch probe;
    probe.names = {ColumnRef("p", "k")};
    ColumnVector pk(VecType::kInt64);
    for (int i = 0; i < keys; ++i) pk.ints().push_back(2 * i + 1);
    probe.columns = {pk};
    probe.num_rows = keys;
    int rejected = 0;
    for (uint32_t r = 0; r < static_cast<uint32_t>(keys); ++r) {
      ASSERT_TRUE(table.bloom()->MayContain(JoinKeyHash(build, {0}, r)))
          << "false negative on build key " << 2 * r;
      rejected += table.bloom()->MayContain(JoinKeyHash(probe, {0}, r)) ? 0 : 1;
    }
    EXPECT_GE(rejected, keys * 95 / 100) << keys << " build keys";
  }
}

// ---- Batched probe kernel ---------------------------------------------------

ColumnVector Ints(std::vector<int64_t> v) {
  ColumnVector col(VecType::kInt64);
  col.ints() = std::move(v);
  return col;
}

ColumnVector Doubles(std::vector<double> v) {
  ColumnVector col(VecType::kDouble);
  col.doubles() = std::move(v);
  return col;
}

ColumnVector Strings(std::vector<std::string> v, bool dict) {
  ColumnVector col(VecType::kString);
  col.strings() = std::move(v);
  if (dict) {
    EXPECT_TRUE(col.DictEncode());
  }
  return col;
}

ColumnBatch KeyBatch(const char* alias, std::vector<ColumnVector> cols) {
  ColumnBatch batch;
  for (size_t c = 0; c < cols.size(); ++c) {
    batch.names.push_back(ColumnRef(alias, "k" + std::to_string(c)));
  }
  batch.num_rows = cols.empty() ? 0 : cols[0].size();
  batch.columns = std::move(cols);
  return batch;
}

struct PairList {
  SelVector left;
  SelVector right;
};

/// Nested-loop reference join over probe rows [begin, end): value-semantics
/// CellsEqual on every key, probe-major, build rows ascending.
PairList ReferencePairs(const ColumnBatch& probe, const std::vector<int>& pkeys,
                        const ColumnBatch& build, const std::vector<int>& bkeys,
                        uint32_t begin, uint32_t end) {
  PairList out;
  for (uint32_t l = begin; l < end; ++l) {
    for (uint32_t r = 0; r < build.num_rows; ++r) {
      bool eq = true;
      for (size_t c = 0; c < pkeys.size() && eq; ++c) {
        eq = ColumnVector::CellsEqual(probe.columns[pkeys[c]], l,
                                      build.columns[bkeys[c]], r);
      }
      if (eq) {
        out.left.push_back(l);
        out.right.push_back(r);
      }
    }
  }
  return out;
}

PairList KernelPairs(const JoinHashTable& table, const ColumnBatch& probe,
                     const std::vector<int>& pkeys, uint32_t begin,
                     uint32_t end) {
  PairList out;
  table.ProbeRange(table.Prepare(probe, pkeys), probe, pkeys, begin, end,
                   &out.left, &out.right);
  return out;
}

/// ProbeRange must equal the nested-loop reference pair for pair, in order,
/// over the whole probe batch and over ranges starting mid-batch, for tables
/// built at threads {1, 2, 8} (small morsels, so parallel builds split).
/// Returns the total number of reference pairs over the whole batch.
size_t ExpectKernelMatchesReference(const ColumnBatch& probe,
                                    const std::vector<int>& pkeys,
                                    const ColumnBatch& build,
                                    const std::vector<int>& bkeys) {
  const uint32_t n = static_cast<uint32_t>(probe.num_rows);
  const std::vector<std::pair<uint32_t, uint32_t>> ranges = {
      {0, n}, {n / 3, n}, {n / 2, n / 2 + (n + 3) / 4}, {n, n}};
  std::vector<PairList> want;
  for (const auto& [begin, end] : ranges) {
    want.push_back(ReferencePairs(probe, pkeys, build, bkeys, begin, end));
  }
  for (int threads : {1, 2, 8}) {
    const JoinHashTable table =
        JoinHashTable::Build(build, bkeys, PipelineOptions{threads, 64});
    for (size_t i = 0; i < ranges.size(); ++i) {
      const auto [begin, end] = ranges[i];
      const PairList got = KernelPairs(table, probe, pkeys, begin, end);
      EXPECT_EQ(got.left, want[i].left)
          << "threads " << threads << " range [" << begin << "," << end << ")";
      EXPECT_EQ(got.right, want[i].right)
          << "threads " << threads << " range [" << begin << "," << end << ")";
    }
  }
  return want[0].left.size();
}

TEST(VexecProbeKernelTest, PlainAndForInt64KeysMatchNestedLoop) {
  std::vector<int64_t> pv;
  std::vector<int64_t> bv;
  for (int i = 0; i < 1500; ++i) pv.push_back(1000 + (i * 7) % 450);
  for (int i = 0; i < 1200; ++i) bv.push_back(1000 + (i * 11) % 400);
  const ColumnBatch probe = KeyBatch("p", {Ints(pv)});
  const ColumnBatch build = KeyBatch("b", {Ints(bv)});
  EXPECT_GT(ExpectKernelMatchesReference(probe, {0}, build, {0}), 0u);

  ColumnBatch for_probe = probe;
  ColumnBatch for_build = build;
  ASSERT_TRUE(for_probe.columns[0].ForEncode());
  ASSERT_TRUE(for_build.columns[0].ForEncode());
  EXPECT_GT(ExpectKernelMatchesReference(for_probe, {0}, for_build, {0}), 0u);
  // Mixed physical forms on the two sides agree too.
  EXPECT_GT(ExpectKernelMatchesReference(probe, {0}, for_build, {0}), 0u);
  EXPECT_GT(ExpectKernelMatchesReference(for_probe, {0}, build, {0}), 0u);
}

TEST(VexecProbeKernelTest, Int64AgainstDoubleKeysCompareByValue) {
  // 1 == 1.0; 1.5 matches no integer.
  const ColumnBatch probe = KeyBatch("p", {Ints({0, 1, 2, 3, 1, 7, -4})});
  const ColumnBatch build =
      KeyBatch("b", {Doubles({1.0, 1.5, 3.0, -4.0, 1.0, 8.0, 0.0})});
  EXPECT_EQ(ExpectKernelMatchesReference(probe, {0}, build, {0}), 7u);
  EXPECT_EQ(ExpectKernelMatchesReference(build, {0}, probe, {0}), 7u);
}

TEST(VexecProbeKernelTest, SignedZeroMatchesAndNanNeverMatches) {
  const double nan = std::nan("");
  const ColumnBatch probe =
      KeyBatch("p", {Doubles({-0.0, 0.0, nan, 2.0, nan, -0.0})});
  const ColumnBatch build =
      KeyBatch("b", {Doubles({0.0, nan, -0.0, 2.0, nan})});
  // Each of the three zeros meets both build zeros; 2.0 meets 2.0.
  EXPECT_EQ(ExpectKernelMatchesReference(probe, {0}, build, {0}), 7u);
  const ColumnBatch ints = KeyBatch("i", {Ints({0, 2, 0})});
  EXPECT_EQ(ExpectKernelMatchesReference(ints, {0}, build, {0}), 5u);
}

TEST(VexecProbeKernelTest, DictionaryKeysSharedAndRemapped) {
  std::vector<std::string> bs;
  std::vector<std::string> ps;
  for (int i = 0; i < 400; ++i) bs.push_back("t" + std::to_string(3 + i % 10));
  for (int i = 0; i < 500; ++i) ps.push_back("t" + std::to_string(i % 10));
  const ColumnBatch build = KeyBatch("b", {Strings(bs, true)});

  // Shared dictionary: the probe gathers the build column, keeping its dict.
  SelVector sel;
  for (uint32_t i = 0; i < 400; i += 3) sel.push_back(i);
  const ColumnBatch shared = KeyBatch("p", {build.columns[0].Gather(sel)});
  ASSERT_EQ(shared.columns[0].dict(), build.columns[0].dict());
  {
    const JoinHashTable table =
        JoinHashTable::Build(build, {0}, PipelineOptions{});
    EXPECT_EQ(table.Prepare(shared, {0}).keys[0].mode,
              JoinHashTable::PreparedProbe::Mode::kSameDict);
  }
  EXPECT_GT(ExpectKernelMatchesReference(shared, {0}, build, {0}), 0u);

  // Different dictionaries, t0..t2 absent from the build side.
  const ColumnBatch remapped = KeyBatch("p", {Strings(ps, true)});
  {
    const JoinHashTable table =
        JoinHashTable::Build(build, {0}, PipelineOptions{});
    EXPECT_EQ(table.Prepare(remapped, {0}).keys[0].mode,
              JoinHashTable::PreparedProbe::Mode::kRemap);
  }
  EXPECT_GT(ExpectKernelMatchesReference(remapped, {0}, build, {0}), 0u);

  // Raw strings against codes take the generic compare.
  const ColumnBatch raw = KeyBatch("p", {Strings(ps, false)});
  EXPECT_GT(ExpectKernelMatchesReference(raw, {0}, build, {0}), 0u);
  EXPECT_GT(ExpectKernelMatchesReference(build, {0}, raw, {0}), 0u);

  // A string key never equals a numeric one.
  const ColumnBatch nums = KeyBatch("n", {Ints({3, 4, 5})});
  EXPECT_EQ(ExpectKernelMatchesReference(nums, {0}, build, {0}), 0u);
}

TEST(VexecProbeKernelTest, TwoColumnKeys) {
  std::vector<int64_t> pa;
  std::vector<std::string> pb;
  std::vector<int64_t> ba;
  std::vector<std::string> bb;
  for (int i = 0; i < 600; ++i) {
    pa.push_back(i % 13);
    pb.push_back("v" + std::to_string(i % 7));
  }
  for (int i = 0; i < 300; ++i) {
    ba.push_back(i % 11);
    bb.push_back("v" + std::to_string(i % 5));
  }
  const ColumnBatch probe =
      KeyBatch("p", {Ints(pa), Strings(pb, true)});
  const ColumnBatch build =
      KeyBatch("b", {Strings(bb, true), Ints(ba)});
  EXPECT_GT(ExpectKernelMatchesReference(probe, {0, 1}, build, {1, 0}), 0u);
}

TEST(VexecProbeKernelTest, EmptyKeySetIsTheCrossProduct) {
  const ColumnBatch probe = KeyBatch("p", {Ints({5, 6, 7, 8, 9, 10, 11})});
  const ColumnBatch build = KeyBatch("b", {Ints({1, 2, 3, 4, 5})});
  EXPECT_EQ(ExpectKernelMatchesReference(probe, {}, build, {}), 35u);
}

TEST(VexecProbeKernelTest, EmptyBuildSideMatchesNothing) {
  const ColumnBatch probe = KeyBatch("p", {Ints({1, 2, 3})});
  const ColumnBatch build = KeyBatch("b", {Ints({})});
  EXPECT_EQ(ExpectKernelMatchesReference(probe, {0}, build, {0}), 0u);
  EXPECT_EQ(ExpectKernelMatchesReference(probe, {}, build, {}), 0u);
}

TEST(VexecProbeKernelTest, DuplicateHeavyKeys) {
  std::vector<int64_t> pv;
  std::vector<int64_t> bv;
  for (int i = 0; i < 300; ++i) pv.push_back(i % 3);
  for (int i = 0; i < 200; ++i) bv.push_back(i % 4);
  const ColumnBatch probe = KeyBatch("p", {Ints(pv)});
  const ColumnBatch build = KeyBatch("b", {Ints(bv)});
  EXPECT_EQ(ExpectKernelMatchesReference(probe, {0}, build, {0}),
            300u * 50u);
}

TEST(VexecProbeKernelTest, ParallelBuildsProbeIdentically) {
  // Duplicate-heavy, all-distinct and condition-less builds: the table's
  // buckets — and so the probe output — must not depend on the build's
  // thread count or morsel size.
  std::vector<int64_t> dup;
  std::vector<int64_t> distinct;
  for (int i = 0; i < 5000; ++i) {
    dup.push_back(i % 17);
    distinct.push_back(static_cast<int64_t>(i) * 7919 % 5003);
  }
  std::vector<int64_t> probe_keys;
  for (int i = 0; i < 4000; ++i) probe_keys.push_back(i % 5100);
  const ColumnBatch probe = KeyBatch("p", {Ints(probe_keys)});
  struct Case {
    const char* label;
    ColumnBatch build;
    std::vector<int> keys;
    uint32_t probe_rows;
  };
  const std::vector<Case> cases = {
      {"duplicate-heavy", KeyBatch("b", {Ints(dup)}), {0}, 4000},
      {"all-distinct", KeyBatch("b", {Ints(distinct)}), {0}, 4000},
      {"condition-less", KeyBatch("b", {Ints(dup)}), {}, 30}};
  for (const Case& c : cases) {
    const std::vector<int> pkeys = c.keys.empty() ? std::vector<int>{}
                                                  : std::vector<int>{0};
    PairList base;
    for (int threads : {1, 2, 8}) {
      for (size_t morsel : {size_t{0}, size_t{100}}) {
        const JoinHashTable table = JoinHashTable::Build(
            c.build, c.keys, PipelineOptions{threads, morsel});
        const PairList got = KernelPairs(table, probe, pkeys, 0, c.probe_rows);
        if (threads == 1 && morsel == 0) {
          base = got;
          EXPECT_GT(base.left.size(), 0u) << c.label;
          continue;
        }
        EXPECT_EQ(got.left, base.left) << c.label << " threads " << threads;
        EXPECT_EQ(got.right, base.right) << c.label << " threads " << threads;
      }
    }
  }
}

TEST(VexecProbeKernelTest, TableBytesStayFlat) {
  // Plain keys compare in place: the table holds offsets, entry rows and
  // entry hashes only — at most 20 bytes per build row.
  std::vector<int64_t> keys;
  for (int i = 0; i < 10000; ++i) keys.push_back(i % 1000);
  ColumnBatch build = KeyBatch("b", {Ints(keys)});
  const JoinHashTable plain =
      JoinHashTable::Build(build, {0}, PipelineOptions{});
  EXPECT_LE(plain.TableBytes(), 20u * 10000u + 8u);
  // A FOR-encoded key adds one decoded copy (8 bytes per row).
  ASSERT_TRUE(build.columns[0].ForEncode());
  const JoinHashTable encoded =
      JoinHashTable::Build(build, {0}, PipelineOptions{});
  EXPECT_EQ(encoded.TableBytes(), plain.TableBytes() + 8u * 10000u);
}

// ---- Zone-map scan skipping and compressed-domain filters -------------------

/// A clustered (sorted) scan source: "k" = row / 2, so a narrow band filter
/// touches few 1024-row zone granules and the rest prune; "v" is payload.
/// Optionally FOR-encodes the key column so the same pipeline exercises the
/// compressed-domain comparison kernels.
struct ZoneFixture {
  ColumnBatch source;

  ZoneFixture(size_t rows, bool for_encode) {
    ColumnVector k(VecType::kInt64);
    ColumnVector v(VecType::kDouble);
    for (size_t i = 0; i < rows; ++i) {
      k.ints().push_back(static_cast<int64_t>(i / 2));
      v.doubles().push_back(static_cast<double>(i % 13));
    }
    if (for_encode) EXPECT_TRUE(k.ForEncode());
    k.BuildZoneMap();
    v.BuildZoneMap();
    source.names = {ColumnRef("s", "k"), ColumnRef("s", "v")};
    source.columns = {std::move(k), std::move(v)};
    source.num_rows = rows;
  }

  /// Scan + fused band filter lo <= k <= hi, keeping both columns.
  VecPipeline MakePipeline(int lo, int hi) const {
    VecPipeline pipe;
    pipe.source = source;
    pipe.source_filters = {Cmp("s", "k", CompareOp::kGe, lo),
                           Cmp("s", "k", CompareOp::kLe, hi)};
    pipe.source_filter_idx = {0, 0};
    pipe.keep_idx = {0, 1};
    pipe.chunk_names = source.names;
    return pipe;
  }
};

TEST(VexecZoneTest, SkippingPreservesFilterOutputAcrossFormsAndThreads) {
  // The surviving rows — and their morsel-order concatenation — must be
  // identical with zone maps on or off, plain or FOR-encoded, at every
  // thread count. Zone skipping is sound (a pruned zone holds no passing
  // row), so it is invisible in the output.
  const size_t rows = 8192;
  ZoneFixture plain(rows, /*for_encode=*/false);
  ZoneFixture enc(rows, /*for_encode=*/true);
  ASSERT_TRUE(enc.source.columns[0].for_encoded());
  ExecOptions off;
  off.zone_maps = 0;
  auto base = RunVecPipeline(plain.MakePipeline(100, 300), off);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  const ColumnBatch& b = base.ValueOrDie();
  ASSERT_EQ(b.num_rows, 402u);  // k = row/2: each value in [100,300] twice
  for (const ZoneFixture* fx : {&plain, &enc}) {
    for (ExecOptions exec : VectorConfigs()) {
      exec.zone_maps = 1;
      auto got = RunVecPipeline(fx->MakePipeline(100, 300), exec);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const ColumnBatch& g = got.ValueOrDie();
      ASSERT_EQ(g.num_rows, b.num_rows)
          << "encoded=" << (fx == &enc) << " t" << exec.num_threads;
      for (size_t c = 0; c < b.columns.size(); ++c) {
        for (size_t r = 0; r < b.num_rows; ++r) {
          ASSERT_TRUE(
              ColumnVector::CellsEqual(b.columns[c], r, g.columns[c], r))
              << "encoded=" << (fx == &enc) << " t" << exec.num_threads
              << " col " << c << " row " << r;
        }
      }
    }
  }
}

TEST(VexecZoneTest, PrunedZoneCountDeterministicAcrossThreads) {
  // The pruned-zone set is resolved serially at the fixed 1024-row granule
  // before any worker starts, so vexec.zone_morsels_pruned is a pure
  // function of (column zones, predicate) — identical at every thread count
  // and morsel size. 8192 rows = 8 zones; the band [100, 300] lives
  // entirely in zone 0 (values 0..511), so zones 1..7 prune.
  const size_t rows = 8192;
  for (bool encode : {false, true}) {
    ZoneFixture fx(rows, encode);
    std::vector<double> pruned;
    for (const ExecOptions& base : VectorConfigs()) {
      ObsOptions obs_options;
      obs_options.metrics = true;
      ObsContext obs(obs_options);
      ExecOptions exec = base;
      exec.zone_maps = 1;
      exec.obs = &obs;
      auto got = RunVecPipeline(fx.MakePipeline(100, 300), exec);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.ValueOrDie().num_rows, 402u);
      pruned.push_back(CounterOf(&obs, "vexec.zone_morsels_pruned"));
      if (encode) {
        // The encoded source also surfaces the compressed-domain counters,
        // and the per-block comparison row count is itself deterministic.
        EXPECT_GT(CounterOf(&obs, "vexec.for_blocks"), 0.0);
        EXPECT_GT(CounterOf(&obs, "vexec.compressed_cmp_rows"), 0.0);
      }
    }
    ASSERT_EQ(pruned.size(), 3u);
    EXPECT_EQ(pruned[0], 7.0) << "encoded=" << encode;
    EXPECT_EQ(pruned[1], pruned[0]) << "encoded=" << encode;
    EXPECT_EQ(pruned[2], pruned[0]) << "encoded=" << encode;
  }
}

TEST(VexecZoneTest, CompressedCompareRowCountDeterministicAcrossThreads) {
  // With zones off, every morsel runs the filter; on an encoded column the
  // mid-block (partially passing) row count is per-block, not per-morsel,
  // so it too must not vary with the thread count.
  ZoneFixture fx(8192, /*for_encode=*/true);
  std::vector<double> cmp_rows;
  for (const ExecOptions& base : VectorConfigs()) {
    ObsOptions obs_options;
    obs_options.metrics = true;
    ObsContext obs(obs_options);
    ExecOptions exec = base;
    exec.zone_maps = 0;
    exec.obs = &obs;
    auto got = RunVecPipeline(fx.MakePipeline(100, 300), exec);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    cmp_rows.push_back(CounterOf(&obs, "vexec.compressed_cmp_rows"));
  }
  EXPECT_GT(cmp_rows[0], 0.0);
  EXPECT_EQ(cmp_rows[1], cmp_rows[0]);
  EXPECT_EQ(cmp_rows[2], cmp_rows[0]);
}

TEST(VexecZoneTest, EnvKnobsResolveUnsetOptionsOnly) {
  // MQO_ZONE_MAPS / MQO_NUM_COMPRESSION fill in knobs the caller left at
  // -1; an explicit ExecOptions value always wins (the unset-knobs-only
  // convention shared with MQO_MAT_BUDGET_BYTES). Runs hermetically: the
  // ambient values (the CI legs set them) are saved and restored.
  const char* zone_env = ::getenv("MQO_ZONE_MAPS");
  const char* comp_env = ::getenv("MQO_NUM_COMPRESSION");
  const std::string saved_zone = zone_env ? zone_env : "";
  const std::string saved_comp = comp_env ? comp_env : "";
  ::unsetenv("MQO_ZONE_MAPS");
  ::unsetenv("MQO_NUM_COMPRESSION");
  ExecOptions opts;
  EXPECT_TRUE(opts.zone_maps_enabled());
  EXPECT_TRUE(opts.numeric_compression_enabled());
  ::setenv("MQO_ZONE_MAPS", "0", 1);
  ::setenv("MQO_NUM_COMPRESSION", "0", 1);
  EXPECT_FALSE(opts.zone_maps_enabled());
  EXPECT_FALSE(opts.numeric_compression_enabled());
  opts.zone_maps = 1;
  opts.numeric_compression = 1;
  EXPECT_TRUE(opts.zone_maps_enabled());
  EXPECT_TRUE(opts.numeric_compression_enabled());
  opts.zone_maps = 0;
  ::setenv("MQO_ZONE_MAPS", "1", 1);
  EXPECT_FALSE(opts.zone_maps_enabled());
  if (zone_env == nullptr) {
    ::unsetenv("MQO_ZONE_MAPS");
  } else {
    ::setenv("MQO_ZONE_MAPS", saved_zone.c_str(), 1);
  }
  if (comp_env == nullptr) {
    ::unsetenv("MQO_NUM_COMPRESSION");
  } else {
    ::setenv("MQO_NUM_COMPRESSION", saved_comp.c_str(), 1);
  }
}

TEST(VexecZoneTest, GeneratedDataIsValueIdenticalAcrossPhysicalForms) {
  // DataGenOptions::numeric_compression only picks the physical form: the
  // same seed yields cell-identical tables encoded or plain, which is what
  // lets benchmarks and the differential suite ablate FOR on one database.
  Catalog catalog = MakeTpcdCatalog(1);
  DataGenOptions gen;
  gen.max_rows_per_table = 2500;
  gen.seed = 11;
  gen.numeric_compression = 1;
  DataSet enc_data = GenerateData(catalog, gen);
  gen.numeric_compression = 0;
  DataSet plain_data = GenerateData(catalog, gen);
  const ColumnStore* enc = enc_data.GetTable("lineitem").ValueOrDie();
  const ColumnStore* plain = plain_data.GetTable("lineitem").ValueOrDie();
  ASSERT_EQ(enc->num_rows(), plain->num_rows());
  bool any_for = false;
  for (size_t c = 0; c < enc->num_columns(); ++c) {
    const ColumnVector& e = enc->column(c);
    const ColumnVector& p = plain->column(c);
    EXPECT_FALSE(p.for_encoded());
    any_for |= e.for_encoded();
    if (e.type() == VecType::kInt64) {
      // Narrow generated domains also persist zone maps on both forms.
      EXPECT_NE(e.zone_map(), nullptr);
      EXPECT_NE(p.zone_map(), nullptr);
      for (size_t r = 0; r < enc->num_rows(); ++r) {
        ASSERT_EQ(e.Int64At(r), p.ints()[r]) << "col " << c << " row " << r;
      }
    }
  }
  EXPECT_TRUE(any_for);  // domain_cap-bounded int columns compress
}

TEST(VexecBudgetTest, TinyBudgetForcesSpillsWithoutChangingResults) {
  // Drive the vector executor directly so the store's spill counters are
  // observable: with a 1-byte budget every materialized segment must evict
  // to disk and every read must reload, and the answers must not move.
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 60;
  gen.seed = 77;
  DataSet data = GenerateData(catalog, gen);
  BatchOptimizer optimizer(&memo, CostModel());
  MaterializationProblem problem(&optimizer);
  MqoResult result = RunGreedy(&problem);
  ASSERT_FALSE(result.materialized.empty());
  ConsolidatedPlan plan = optimizer.Plan(result.materialized);

  auto base = ExecuteConsolidatedResult(ExecBackend::kVector, &memo, &data,
                                        plan);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  if (std::getenv("MQO_MAT_BUDGET_BYTES") == nullptr) {
    // Skip under the CI budget-spill job, which forces a budget on every
    // run's store via the environment.
    EXPECT_EQ(base.ValueOrDie().store_stats.evictions, 0);
  }

  ExecOptions exec;
  exec.mat_budget_bytes = 1;
  auto spilled = ExecuteConsolidatedResult(ExecBackend::kVector, &memo, &data,
                                           plan, exec);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  const MatStoreStats& stats = spilled.ValueOrDie().store_stats;
  EXPECT_GT(stats.evictions, 0);
  EXPECT_GT(stats.reloads, 0);
  EXPECT_GT(stats.bytes_spilled, 0u);
  // At most the last reloaded segment may still sit resident (a reload
  // stays over budget until the next enforcement point).
  EXPECT_LE(spilled.ValueOrDie().store_bytes, stats.bytes_reloaded);
  const auto& base_rows = base.ValueOrDie().results;
  const auto& spilled_rows = spilled.ValueOrDie().results;
  ASSERT_EQ(base_rows.size(), spilled_rows.size());
  for (size_t q = 0; q < base_rows.size(); ++q) {
    ExpectSameRows(base_rows[q], spilled_rows[q],
                   "budgeted q" + std::to_string(q));
  }
}

TEST(VexecBudgetTest, FacadeBudgetKnobKeepsAnswersAndFeedsAdmission) {
  // MqoOptions::mat_budget_bytes flows to both the optimizer (admission /
  // spill penalty may change the chosen set) and the executors (spill at
  // run time); the query answers must be identical either way.
  Catalog catalog = MakeTpcdCatalog(1);
  const std::vector<std::string> batch = {
      "SELECT o_orderdate, SUM(l_extendedprice) FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey AND o_orderdate < date '1995-03-15' "
      "GROUP BY o_orderdate",
      "SELECT o_orderdate, SUM(l_extendedprice) FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey AND o_orderdate < date '1995-06-15' "
      "GROUP BY o_orderdate"};
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 30;
  gen.seed = 11;
  DataSet data = GenerateData(catalog, gen);
  MqoOptions options;
  options.backend = ExecBackend::kVector;
  auto unbudgeted = OptimizeAndExecuteSqlBatch(catalog, batch, data, options);
  ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status().ToString();
  for (size_t budget : {size_t{1}, size_t{64 * 1024}}) {
    options.mat_budget_bytes = budget;
    auto budgeted = OptimizeAndExecuteSqlBatch(catalog, batch, data, options);
    ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
    ASSERT_EQ(budgeted.ValueOrDie().results.size(), 2u);
    for (size_t q = 0; q < 2; ++q) {
      ExpectSameRows(unbudgeted.ValueOrDie().results[q],
                     budgeted.ValueOrDie().results[q],
                     "facade budget " + std::to_string(budget) + " q" +
                         std::to_string(q));
    }
  }
}

TEST(VexecBudgetTest, AdmissionRefusesNodesCheaperToRecompute) {
  // With a budget, nodes whose compute cost undercuts one sequential read
  // of their result leave the universe; without one, nothing is refused.
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  BatchOptimizer unbounded(&memo, CostModel());
  MaterializationProblem open_problem(&unbounded);
  EXPECT_TRUE(open_problem.admission_refused().empty());

  CostParams params;
  params.mat_budget_bytes = 1.0;
  BatchOptimizer bounded(&memo, CostModel(params));
  MaterializationProblem tight_problem(&bounded);
  EXPECT_EQ(tight_problem.universe_size() +
                static_cast<int>(tight_problem.admission_refused().size()),
            open_problem.universe_size());
  // The spill penalty makes any nonempty set dearer than the raw bc(S).
  if (tight_problem.universe_size() > 0) {
    ElementSet single(tight_problem.universe_size());
    single.Add(0);
    const std::set<EqId> eqs = tight_problem.ToEqIds(single);
    EXPECT_GT(tight_problem.SpillPenalty(eqs), 0.0);
    EXPECT_GE(tight_problem.best_cost().Value(single),
              bounded.BestCost(eqs));
  }
}

// ---- Columnar format and kernel unit tests ----------------------------------

NamedRows MakeRows() {
  NamedRows rows;
  rows.columns = {ColumnRef("r", "k"), ColumnRef("r", "x"),
                  ColumnRef("r", "s")};
  rows.rows = {{Value(3.0), Value(1.5), Value("b")},
               {Value(1.0), Value(2.0), Value("a")},
               {Value(3.0), Value(-0.5), Value("c")}};
  return rows;
}

TEST(ColumnBatchTest, RoundTripPreservesValuesAndInfersTypes) {
  NamedRows rows = MakeRows();
  auto batch = BatchFromRows(rows);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const ColumnBatch& b = batch.ValueOrDie();
  EXPECT_EQ(b.columns[0].type(), VecType::kInt64);   // 3, 1, 3 all integral
  EXPECT_EQ(b.columns[1].type(), VecType::kDouble);  // fractional
  EXPECT_EQ(b.columns[2].type(), VecType::kString);
  NamedRows back = BatchToRows(b);
  ASSERT_EQ(back.rows.size(), rows.rows.size());
  for (size_t r = 0; r < rows.rows.size(); ++r) {
    for (size_t c = 0; c < rows.columns.size(); ++c) {
      EXPECT_TRUE(ValueEq(rows.rows[r][c], back.rows[r][c]));
    }
  }
}

TEST(ColumnBatchTest, MixedTypeColumnRejected) {
  NamedRows rows;
  rows.columns = {ColumnRef("r", "bad")};
  rows.rows = {{Value(1.0)}, {Value("oops")}};
  auto batch = BatchFromRows(rows);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kUnimplemented);
}

TEST(VectorOpsTest, FilterMatchesRowEngineIncludingTypeMismatch) {
  NamedRows rows = MakeRows();
  auto batch = BatchFromRows(rows);
  ASSERT_TRUE(batch.ok());
  // k >= 2 (int fast path), x > 0 (double), s <= "b" (string).
  Predicate pred({Cmp("r", "k", CompareOp::kGe, 2),
                  Cmp("r", "x", CompareOp::kGt, 0.0),
                  Cmp("r", "s", CompareOp::kLe, "b")});
  auto expected = FilterRows(rows, pred);
  auto actual = FilterBatch(batch.ValueOrDie(), pred);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  NamedRows actual_rows = BatchToRows(actual.ValueOrDie());
  ASSERT_EQ(actual_rows.rows.size(), expected.ValueOrDie().rows.size());
  // Comparing a numeric column against a string literal passes nothing, on
  // both engines.
  Predicate mismatch({Cmp("r", "k", CompareOp::kEq, "3")});
  EXPECT_TRUE(FilterRows(rows, mismatch).ValueOrDie().rows.empty());
  EXPECT_EQ(FilterBatch(batch.ValueOrDie(), mismatch).ValueOrDie().num_rows,
            0u);
}

TEST(VectorOpsTest, HashAndMergeJoinMatchRowJoin) {
  NamedRows left = MakeRows();
  NamedRows right;
  right.columns = {ColumnRef("q", "k"), ColumnRef("q", "t")};
  right.rows = {{Value(3.0), Value("x")},
                {Value(2.0), Value("y")},
                {Value(3.0), Value("z")},
                {Value(1.0), Value("w")}};
  JoinPredicate pred({KeyJoin("r", "q")});
  auto expected = JoinRows(left, right, pred);
  ASSERT_TRUE(expected.ok());
  auto lb = BatchFromRows(left);
  auto rb = BatchFromRows(right);
  ASSERT_TRUE(lb.ok());
  ASSERT_TRUE(rb.ok());
  for (bool merge : {false, true}) {
    auto joined =
        merge ? MergeJoinBatch(lb.ValueOrDie(), rb.ValueOrDie(), pred)
              : HashJoinBatch(lb.ValueOrDie(), rb.ValueOrDie(), pred);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    NamedRows got = BatchToRows(joined.ValueOrDie());
    NamedRows want = expected.ValueOrDie();
    ASSERT_TRUE(Canonicalize(want.columns, &got).ok());
    NamedRows want_canon = want;
    ASSERT_TRUE(Canonicalize(want.columns, &want_canon).ok());
    ASSERT_EQ(got.rows.size(), want_canon.rows.size());
    for (size_t r = 0; r < got.rows.size(); ++r) {
      for (size_t c = 0; c < got.columns.size(); ++c) {
        EXPECT_TRUE(ValueEq(got.rows[r][c], want_canon.rows[r][c]));
      }
    }
  }
}

TEST(VectorOpsTest, JoinWithOverlappingAliasesRejectedLikeRowEngine) {
  NamedRows rows = MakeRows();
  auto batch = BatchFromRows(rows);
  ASSERT_TRUE(batch.ok());
  JoinPredicate pred({KeyJoin("r", "r")});
  auto row = JoinRows(rows, rows, pred);
  auto vec = HashJoinBatch(batch.ValueOrDie(), batch.ValueOrDie(), pred);
  ASSERT_FALSE(row.ok());
  ASSERT_FALSE(vec.ok());
  EXPECT_EQ(vec.status().code(), row.status().code());
}

TEST(VectorOpsTest, AggregateMatchesRowEngine) {
  NamedRows rows = MakeRows();
  auto batch = BatchFromRows(rows);
  ASSERT_TRUE(batch.ok());
  std::vector<ColumnRef> group_by = {ColumnRef("r", "k")};
  std::vector<AggExpr> aggs = {Agg(AggFunc::kSum, ColumnRef("r", "x")),
                               Agg(AggFunc::kCount),
                               Agg(AggFunc::kMin, ColumnRef("r", "s")),
                               Agg(AggFunc::kMax, ColumnRef("r", "s")),
                               Agg(AggFunc::kAvg, ColumnRef("r", "x"))};
  auto expected = AggregateRows(rows, group_by, aggs, {});
  auto actual = AggregateBatch(batch.ValueOrDie(), group_by, aggs, {});
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  NamedRows got = BatchToRows(actual.ValueOrDie());
  NamedRows want = expected.ValueOrDie();
  ASSERT_TRUE(Canonicalize(want.columns, &got).ok());
  NamedRows want_canon = want;
  ASSERT_TRUE(Canonicalize(want.columns, &want_canon).ok());
  ASSERT_EQ(got.rows.size(), want_canon.rows.size());
  for (size_t r = 0; r < got.rows.size(); ++r) {
    for (size_t c = 0; c < got.columns.size(); ++c) {
      EXPECT_TRUE(ValueEq(got.rows[r][c], want_canon.rows[r][c]))
          << "row " << r << " col " << got.columns[c].ToString();
    }
  }
}

TEST(VectorOpsTest, ParallelHashJoinIsDeterministicAndMatchesSerial) {
  // Skewed keys (every key repeats) over enough rows for many 4-row
  // morsels. The parallel build/probe must reproduce the serial output
  // exactly — same rows in the same order, not just bag-equal.
  NamedRows left;
  left.columns = {ColumnRef("l", "k"), ColumnRef("l", "x")};
  NamedRows right;
  right.columns = {ColumnRef("r", "k"), ColumnRef("r", "y")};
  for (int i = 0; i < 100; ++i) {
    left.rows.push_back({Value(double(i % 5)), Value(double(i))});
    right.rows.push_back({Value(double(i % 7)), Value(double(-i))});
  }
  auto lb = BatchFromRows(left);
  auto rb = BatchFromRows(right);
  ASSERT_TRUE(lb.ok());
  ASSERT_TRUE(rb.ok());
  JoinPredicate pred({KeyJoin("l", "r")});
  auto serial = HashJoinBatch(lb.ValueOrDie(), rb.ValueOrDie(), pred);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const NamedRows want = BatchToRows(serial.ValueOrDie());
  ASSERT_GT(want.rows.size(), 0u);
  for (int threads : {2, 8}) {
    auto parallel =
        HashJoinBatch(lb.ValueOrDie(), rb.ValueOrDie(), pred, threads, 4);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    const NamedRows got = BatchToRows(parallel.ValueOrDie());
    ASSERT_EQ(got.rows.size(), want.rows.size()) << threads << " threads";
    for (size_t r = 0; r < want.rows.size(); ++r) {
      for (size_t c = 0; c < want.columns.size(); ++c) {
        ASSERT_TRUE(ValueEq(got.rows[r][c], want.rows[r][c]))
            << threads << " threads, row " << r;
      }
    }
  }
}

TEST(VectorOpsTest, SortIsBagPreserving) {
  NamedRows rows = MakeRows();
  auto batch = BatchFromRows(rows);
  ASSERT_TRUE(batch.ok());
  auto sorted = SortBatch(batch.ValueOrDie(), {ColumnRef("r", "k")});
  ASSERT_TRUE(sorted.ok());
  const ColumnBatch& s = sorted.ValueOrDie();
  ASSERT_EQ(s.num_rows, 3u);
  // Sorted ascending by k: 1, 3, 3.
  EXPECT_EQ(s.columns[0].ints()[0], 1);
  EXPECT_EQ(s.columns[0].ints()[1], 3);
  EXPECT_EQ(s.columns[0].ints()[2], 3);
}

TEST(VectorExecutorTest, ReadWithoutMaterializationFails) {
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  auto shareable = ShareableNodes(memo);
  ASSERT_FALSE(shareable.empty());
  DataGenOptions gen;
  gen.max_rows_per_table = 20;
  gen.seed = 5;
  DataSet data = GenerateData(catalog, gen);
  VectorPlanExecutor executor(&memo, &data);
  PlanNodePtr read = MakePlanNode(PhysOp::kReadMaterialized, shareable[0], {},
                                  1.0, "", {});
  auto result = executor.Execute(read);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace mqo
