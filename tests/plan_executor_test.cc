// End-to-end semantic validation of physical plans: for any materialized
// set, executing the consolidated plan must return exactly the same per-query
// results as the reference evaluation of each query class — materialization
// is a pure performance decision and must never change answers.

#include <gtest/gtest.h>

#include "catalog/tpcd.h"
#include "exec/plan_executor.h"
#include "exec/row_ops.h"
#include "lqdag/rules.h"
#include "mqo/mqo_algorithms.h"
#include "vexec/backend.h"
#include "workload/example1.h"
#include "workload/tpcd_queries.h"

namespace mqo {
namespace {

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

void ExpectSameRows(const NamedRows& a, const NamedRows& b) {
  ASSERT_EQ(a.columns.size(), b.columns.size());
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (size_t r = 0; r < a.rows.size(); ++r) {
    for (size_t c = 0; c < a.columns.size(); ++c) {
      ASSERT_TRUE(ValueEq(a.rows[r][c], b.rows[r][c]))
          << "row " << r << " col " << a.columns[c].ToString();
    }
  }
}

/// Runs the full check for one memo/catalog: for the empty set, the
/// MarginalGreedy pick, and every shareable singleton, consolidated execution
/// equals reference evaluation.
void CheckWorkload(const Catalog& catalog, Memo* memo, const DataGenOptions& gen) {
  Rng rng(77);
  DataSet data = GenerateData(catalog, gen, &rng);
  Evaluator reference(memo, &data);
  BatchOptimizer optimizer(memo, CostModel());
  MaterializationProblem problem(&optimizer);
  const std::vector<EqId> roots = QueryRoots(*memo);
  ASSERT_FALSE(roots.empty());

  std::vector<std::set<EqId>> mat_sets = {{}};
  MqoResult mqo = RunMarginalGreedy(&problem);
  mat_sets.push_back(mqo.materialized);
  for (EqId e : problem.universe()) mat_sets.push_back({e});

  for (const auto& mat : mat_sets) {
    ConsolidatedPlan plan = optimizer.Plan(mat);
    auto executed = ExecuteConsolidatedWith(ExecBackend::kRow, memo, &data,
                                            plan);
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    const auto& results = executed.ValueOrDie();
    ASSERT_EQ(results.size(), roots.size());
    for (size_t q = 0; q < roots.size(); ++q) {
      auto expected = reference.EvaluateClass(roots[q]);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ExpectSameRows(expected.ValueOrDie(), results[q]);
    }
  }
}

TEST(PlanExecutorTest, Example1AllMaterializationChoicesPreserveResults) {
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 60;
  CheckWorkload(catalog, &memo, gen);
}

TEST(PlanExecutorTest, TpcdQ3VariantsPreserveResults) {
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch({MakeQ3(0), MakeQ3(1)});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 40;
  gen.domain_cap = 30;
  CheckWorkload(catalog, &memo, gen);
}

TEST(PlanExecutorTest, TpcdQ11AggregateChainPreservesResults) {
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch(MakeQ11());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 30;
  gen.domain_cap = 25;
  CheckWorkload(catalog, &memo, gen);
}

TEST(PlanExecutorTest, TpcdQ15PreservesResults) {
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch(MakeQ15());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 30;
  gen.domain_cap = 20;
  CheckWorkload(catalog, &memo, gen);
}

TEST(PlanExecutorTest, TpcdQ9VariantsPreserveNonEmptyResults) {
  // Q9's numeric range predicates admit rows on the capped synthetic domain,
  // so this case checks equality on non-trivial result sets.
  Catalog catalog = MakeTpcdCatalog(1);
  Memo memo(&catalog);
  memo.InsertBatch({MakeQ9(0), MakeQ9(1)});
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  DataGenOptions gen;
  gen.max_rows_per_table = 50;
  gen.domain_cap = 25;
  Rng rng(77);
  DataSet data = GenerateData(catalog, gen, &rng);
  Evaluator reference(&memo, &data);
  const std::vector<EqId> roots = QueryRoots(memo);
  for (EqId root : roots) {
    auto rows = reference.EvaluateClass(root);
    ASSERT_TRUE(rows.ok());
    EXPECT_GT(rows.ValueOrDie().rows.size(), 0u);
  }
  CheckWorkload(catalog, &memo, gen);
}

TEST(PlanExecutorTest, ReadWithoutMaterializationFails) {
  Catalog catalog = MakeExample1Catalog();
  Memo memo(&catalog);
  memo.InsertBatch(MakeExample1Queries());
  ASSERT_TRUE(ExpandMemo(&memo).ok());
  auto shareable = ShareableNodes(memo);
  ASSERT_FALSE(shareable.empty());
  Rng rng(5);
  DataGenOptions gen;
  gen.max_rows_per_table = 20;
  DataSet data = GenerateData(catalog, gen, &rng);
  PlanExecutor executor(&memo, &data);
  // A bare ReadMaterialized with an empty store must error, not crash.
  PlanNodePtr read = MakePlanNode(PhysOp::kReadMaterialized, shareable[0], {},
                                  1.0, "", {});
  auto result = executor.Execute(read);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace mqo
