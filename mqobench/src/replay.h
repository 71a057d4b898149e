// Traced layer-by-layer replay of MqoSession::Run.
//
// The replayer holds the same cross-batch state a session holds (collected
// statistics, cardinality feedback, the shared segment cache) and runs one
// SQL batch through each layer's public functions in the order
// OptimizeAndExecuteBatch calls them, timing every call from outside the
// program. Spans go to an in-memory recorder that writes Chrome trace JSON
// when the run ends.

#ifndef MQOBENCH_REPLAY_H_
#define MQOBENCH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mqo/facade.h"

namespace mqobench {

/// In-memory span store (thread-safe). Each span has a name, start, end,
/// parent span and the batch it belongs to.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;  ///< Index of the enclosing span, -1 for a batch root.
    uint64_t batch = 0;
    int client = 0;
  };

  /// Records a finished span; returns its index.
  int Add(Span span);
  /// Re-parents and re-times a span (a batch root ends after its children).
  void Finish(int index, int64_t end_ns);
  /// Chrome trace_event JSON ("X" events; pid = batch id, tid = client).
  std::string ToChromeJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-layer figures of one replayed batch.
struct ReplayStages {
  double parse_ms = 0;
  double lqdag_ms = 0;
  double optimizer_setup_ms = 0;
  double greedy_ms = 0;
  double plan_ms = 0;
  double explain_ms = 0;
  double execute_ms = 0;
  double report_ms = 0;
  double total_ms = 0;  ///< Batch wall time inside the replay.

  // Counts, kept as doubles so they average like the times.
  double classes = 0;
  double costings = 0;
  double function_evals = 0;
  double bc_evals = 0;
  double materialized = 0;
  double segment_rows = 0;
  double predicted_benefit = 0;  ///< bc(∅) − bc(S), cost-model ms.
  double realized_saved_ms = 0;
  double materialize_ms = 0;     ///< Summed segment compute times.

  /// Stage time of the layers that plan the batch (parse through explain).
  double OptimizeMs() const {
    return parse_ms + lqdag_ms + optimizer_setup_ms + greedy_ms + plan_ms +
           explain_ms;
  }
};

struct ReplayOutcome {
  ReplayStages stages;
  std::string consolidated_plan;
  std::vector<mqo::NamedRows> results;
};

/// Mirror of one MqoSession: same options, same kinds of shared state.
class Replayer {
 public:
  /// `options` must be the session's options with every knob the session
  /// would resolve (budgets, stats mode, backend) already set explicitly.
  Replayer(const mqo::Catalog* catalog, const mqo::DataSet* data,
           mqo::MqoOptions options, SpanRecorder* spans);

  /// Analyzes every table up front (the session analyzes on first touch);
  /// returns the milliseconds spent.
  double AnalyzeAll();

  mqo::Result<ReplayOutcome> Run(const std::vector<std::string>& sql,
                                 uint64_t batch_id, int client);

 private:
  const mqo::Catalog* catalog_;
  const mqo::DataSet* data_;
  mqo::MqoOptions options_;
  SpanRecorder* spans_;
  mqo::TableStatsRegistry registry_;
  std::unique_ptr<mqo::SharedSegmentCache> cache_;
  std::mutex mu_;  ///< Guards feedback_.
  mqo::CardinalityFeedback feedback_;
};

int64_t NowNanos();

}  // namespace mqobench

#endif  // MQOBENCH_REPLAY_H_
