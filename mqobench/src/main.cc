// End-to-end MQO benchmark: SQL batches in, canonical results out, through
// MqoSession::Run, on TPC-D data the benchmark generates itself.
//
// Usage: mqobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --spill-dir <dir> [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics: batch_ms (median Run wall
// time), queries_per_s, setup_s (median of several set-ups: data
// generation, session construction, warm-up) and peak_rss_mb. --trace 1
// runs every batch twice, first through the layer-by-layer replay
// (replay.h), then through the session, and reports per-layer metrics;
// its spans are written as Chrome trace JSON to --trace-out.
//
// Every batch's results are checked against reference answers computed
// apart from the program (reference.h). The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "catalog/tpcd.h"
#include "mqo/facade.h"
#include "reference.h"
#include "replay.h"
#include "tpcd_data.h"
#include "workloads.h"

namespace mqobench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spill_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--spill-dir") {
      a->spill_dir = val;
    } else if (key == "--trace-out") {
      a->trace_out = val;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && !a->spill_dir.empty();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

/// Host-noise probe: a fixed CPU-only loop, timed several times; the
/// median in ms. Four independent xorshift chains and lookups in a 64 KiB
/// table keep several execution ports busy, so the probe also slows when a
/// neighbour shares the physical core, not only when the clock drops. It is
/// printed beside the metrics so a slow host phase can be told apart from a
/// program change.
double HostProbeMs() {
  std::vector<uint32_t> table(16384);
  for (size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  std::vector<double> times;
  uint64_t x[4] = {1, 2, 3, 4};
  uint64_t acc = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const int64_t t0 = NowNanos();
    for (int i = 0; i < 2000000; ++i) {
      for (uint64_t& v : x) {
        v ^= v << 13;
        v ^= v >> 7;
        v ^= v << 17;
        acc += table[v & 16383];
      }
    }
    times.push_back((NowNanos() - t0) / 1e6);
  }
  if (acc == 42) std::printf("#\n");  // keeps the loop observable
  return Median(times);
}

mqo::MqoOptions SessionOptions(const Workload& w, const Args& args) {
  mqo::MqoOptions o;
  o.backend = mqo::ExecBackend::kVector;
  o.stats_mode = mqo::StatsMode::kCollected;
  o.exec.num_threads = 1;
  o.exec.zone_maps = 1;
  o.exec.numeric_compression = 1;
  o.exec.mat_spill_dir = args.spill_dir;
  o.obs = mqo::ObsOptions{};
  o.shared_segment_cache = w.shared_cache;
  // Every budget set explicitly (the facade would spread mat_budget_bytes
  // the same way), so the replay sees the exact knobs the session uses.
  o.mat_budget_bytes = w.budget_bytes;
  o.cost_params.mat_budget_bytes = static_cast<double>(w.budget_bytes);
  o.exec.mat_budget_bytes = w.budget_bytes;
  o.shared_cache_budget_bytes = w.budget_bytes;
  return o;
}

/// One set-up of the system under test.
struct Instance {
  mqo::Catalog catalog;
  TpcdDatabase db;
  std::unique_ptr<Replayer> replayer;  // trace mode only
  std::unique_ptr<mqo::MqoSession> session;
};

/// A query whose result waits for the reference check.
struct Check {
  QuerySpec spec;
  uint64_t digest = 0;
  size_t rows = 0;
};

/// What one client saw in the timed phase.
struct ClientLog {
  std::vector<double> batch_ms;
  std::vector<Check> checks;
  std::vector<ReplayStages> stages;
  std::vector<double> overhead_ms;
  std::vector<double> blocked_ms;
  mqo::MatStoreStats store;  ///< Summed per-run store traffic.
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t bad_benefit = 0;
  int64_t replay_mismatch = 0;
  std::string first_error;
};

void AddStore(const mqo::MatStoreStats& a, mqo::MatStoreStats* sum) {
  sum->puts += a.puts;
  sum->evictions += a.evictions;
  sum->spill_writes += a.spill_writes;
  sum->reloads += a.reloads;
  sum->bytes_spilled += a.bytes_spilled;
  sum->bytes_reloaded += a.bytes_reloaded;
}

std::vector<std::string> ToSqlBatch(const std::vector<QuerySpec>& specs) {
  std::vector<std::string> sql;
  for (const auto& q : specs) sql.push_back(ToSql(q));
  return sql;
}

std::mutex g_batch_id_mu;
uint64_t g_next_batch_id = 1;
uint64_t NextBatchId() {
  std::lock_guard<std::mutex> lock(g_batch_id_mu);
  return g_next_batch_id++;
}

/// Runs one batch (replay first in trace mode) and logs it. Returns the
/// session's consolidated plan, or "" when the batch failed.
std::string RunBatch(Instance* inst, const Workload& w,
                     const std::vector<QuerySpec>& specs, int client,
                     bool trace, ClientLog* log) {
  const std::vector<std::string> sql = ToSqlBatch(specs);
  const int64_t n = static_cast<int64_t>(specs.size());
  log->attempted += n;
  std::optional<mqo::Result<ReplayOutcome>> replayed;
  if (trace) replayed.emplace(inst->replayer->Run(sql, NextBatchId(), client));
  const double cpu0 = ThreadCpuMs();
  const int64_t t0 = NowNanos();
  auto outcome = inst->session->Run(sql);
  const double wall_ms = (NowNanos() - t0) / 1e6;
  const double cpu_ms = ThreadCpuMs() - cpu0;
  std::string error;
  if (!outcome.ok()) {
    error = outcome.status().ToString();
  } else if (replayed && !replayed->ok()) {
    error = replayed->status().ToString();
  } else if (outcome.ValueOrDie().results.size() != specs.size()) {
    error = "result count differs from the batch size";
  }
  if (!error.empty()) {
    log->failed += n;
    if (log->first_error.empty()) log->first_error = error;
    return "";
  }
  const mqo::MqoExecutionOutcome& out = outcome.ValueOrDie();
  log->batch_ms.push_back(wall_ms);
  AddStore(out.store_stats, &log->store);
  const mqo::MqoResult& r = out.optimization.result;
  // benefit >= 0: bc(S) <= bc(∅), up to floating-point slack.
  if (r.total_cost > r.volcano_cost * (1 + 1e-9) + 1e-9) ++log->bad_benefit;
  Rows rows;
  for (int64_t i = 0; i < n; ++i) {
    const QuerySpec& q = specs[static_cast<size_t>(i)];
    // A result without the template's columns gets a digest no reference
    // answer has.
    const bool laid_out =
        InReferenceLayout(out.results[static_cast<size_t>(i)], q.tmpl, &rows);
    log->checks.push_back({q, laid_out ? Digest(rows) : 0, rows.size()});
  }
  if (replayed) {
    const ReplayOutcome& rep = replayed->ValueOrDie();
    log->stages.push_back(rep.stages);
    log->overhead_ms.push_back(wall_ms - rep.stages.OptimizeMs() -
                               rep.stages.execute_ms -
                               rep.stages.report_ms);
    log->blocked_ms.push_back(wall_ms - cpu_ms);
    // On serial workloads the replay must reproduce the session's batch.
    if (w.clients == 1) {
      bool same = rep.consolidated_plan == out.optimization.consolidated_plan &&
                  rep.results.size() == out.results.size();
      for (size_t i = 0; same && i < rep.results.size(); ++i) {
        same = rep.results[i].rows == out.results[i].rows;
      }
      if (!same) ++log->replay_mismatch;
    }
  }
  return out.optimization.consolidated_plan;
}

mqo::Status SetUp(const Workload& w, const Args& args, SpanRecorder* spans,
                  Instance* inst, ClientLog* warm_log, int* warm_batches,
                  double* analyze_ms) {
  inst->catalog = mqo::MakeTpcdCatalog(w.sf);
  MQO_ASSIGN_OR_RETURN(inst->db, GenerateTpcd(inst->catalog, w.sf, args.seed));
  const mqo::MqoOptions options = SessionOptions(w, args);
  inst->session = std::make_unique<mqo::MqoSession>(&inst->catalog,
                                                    &inst->db.data, options);
  if (args.trace) {
    inst->replayer = std::make_unique<Replayer>(&inst->catalog,
                                                &inst->db.data, options, spans);
    *analyze_ms = inst->replayer->AnalyzeAll();
  }
  // Warm-up: first-touch ANALYZE, then the warm-up batch again until the
  // feedback-driven plan stops changing.
  const std::vector<QuerySpec> warm = w.Batch(args.seed, 0, -1);
  std::string previous;
  *warm_batches = 0;
  for (int i = 0; i < 6; ++i) {
    const std::string plan = RunBatch(inst, w, warm, 0, args.trace, warm_log);
    ++*warm_batches;
    if (plan.empty()) return mqo::Status::Internal(warm_log->first_error);
    if (plan == previous) break;
    previous = plan;
  }
  return mqo::Status::OK();
}

/// Times one set-up in a child process; false when it fails. The child
/// tears its set-up down (spill files included) before it exits.
bool SetUpInChild(const Workload& w, const Args& args, double* seconds) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // A child must not outlive a parent that is killed mid-run.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    double elapsed = -1;
    {
      SpanRecorder spans;
      Instance inst;
      ClientLog log;
      int warm_batches = 0;
      double analyze_ms = 0;
      const int64_t t0 = NowNanos();
      const mqo::Status st =
          SetUp(w, args, &spans, &inst, &log, &warm_batches, &analyze_ms);
      if (st.ok()) {
        elapsed = (NowNanos() - t0) / 1e9;
      } else {
        std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      }
    }
    const bool sent = write(fds[1], &elapsed, sizeof(elapsed)) ==
                      static_cast<ssize_t>(sizeof(elapsed));
    close(fds[1]);
    _exit(sent && elapsed >= 0 ? 0 : 1);
  }
  close(fds[1]);
  const bool got = read(fds[0], seconds, sizeof(*seconds)) ==
                   static_cast<ssize_t>(sizeof(*seconds));
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Args args;
  Workload w;
  if (!ParseArgs(argc, argv, &args) || !FindWorkload(args.workload, &w)) {
    std::fprintf(stderr,
                 "usage: mqobench --workload tpcd-exec|dashboard-opt|"
                 "session-cache --seed N --seconds S --trace 0|1 "
                 "--spill-dir DIR [--trace-out FILE]\n");
    return 2;
  }
  const double probe_before = HostProbeMs();

  // Set-up, several times. All but the last run in child processes, so
  // their heaps never count towards this process's peak resident set; the
  // last one, in this process, serves the timed phase.
  SpanRecorder spans;
  std::vector<double> setup_s;
  const int repeats = args.trace ? 1 : kSetupRepeats;
  for (int rep = 1; rep < repeats; ++rep) {
    double seconds = 0;
    if (!SetUpInChild(w, args, &seconds)) return 1;
    setup_s.push_back(seconds);
  }
  auto inst = std::make_unique<Instance>();
  ClientLog warm_log;
  int warm_batches = 0;
  double analyze_ms = 0;
  const int64_t setup_start = NowNanos();
  const mqo::Status st = SetUp(w, args, &spans, inst.get(), &warm_log,
                               &warm_batches, &analyze_ms);
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return 1;
  }
  setup_s.push_back((NowNanos() - setup_start) / 1e9);

  // Timed phase: closed-loop clients until the deadline.
  std::vector<ClientLog> logs(static_cast<size_t>(w.clients));
  mqo::SegmentCacheStats cache0;
  mqo::MatStoreStats cache_store0;
  // Storage counters come from the session in both modes: the replay only
  // mirrors its state.
  const mqo::SharedSegmentCache* cache = inst->session->segment_cache();
  if (cache != nullptr) {
    cache0 = cache->stats();
    cache_store0 = cache->store_stats();
  }
  const int64_t start = NowNanos();
  const int64_t deadline =
      start + static_cast<int64_t>(args.seconds * 1e9);
  auto client_loop = [&](int c) {
    ClientLog* log = &logs[static_cast<size_t>(c)];
    for (int64_t i = 0; NowNanos() < deadline; ++i) {
      RunBatch(inst.get(), w, w.Batch(args.seed, c, i), c, args.trace, log);
    }
  };
  // Client 0 runs on this thread, where the set-up ran, so a serial
  // workload's heap stays in one allocator arena.
  std::vector<std::thread> clients;
  for (int c = 1; c < w.clients; ++c) clients.emplace_back(client_loop, c);
  client_loop(0);
  for (auto& t : clients) t.join();
  const double phase_s = (NowNanos() - start) / 1e9;
  mqo::SegmentCacheStats cache1;
  mqo::MatStoreStats cache_store1;
  size_t resident_bytes = 0;
  if (cache != nullptr) {
    cache1 = cache->stats();
    cache_store1 = cache->store_stats();
    resident_bytes = cache->bytes_used();
  }
  const double probe_after = HostProbeMs();

  // Merge the client logs.
  ClientLog all;
  for (auto& l : logs) {
    all.batch_ms.insert(all.batch_ms.end(), l.batch_ms.begin(),
                        l.batch_ms.end());
    all.checks.insert(all.checks.end(), l.checks.begin(), l.checks.end());
    all.stages.insert(all.stages.end(), l.stages.begin(), l.stages.end());
    all.overhead_ms.insert(all.overhead_ms.end(), l.overhead_ms.begin(),
                           l.overhead_ms.end());
    all.blocked_ms.insert(all.blocked_ms.end(), l.blocked_ms.begin(),
                          l.blocked_ms.end());
    AddStore(l.store, &all.store);
    all.attempted += l.attempted;
    all.failed += l.failed;
    all.bad_benefit += l.bad_benefit;
    all.replay_mismatch += l.replay_mismatch;
    if (all.first_error.empty()) all.first_error = l.first_error;
  }
  all.checks.insert(all.checks.end(), warm_log.checks.begin(),
                    warm_log.checks.end());
  all.bad_benefit += warm_log.bad_benefit;
  all.replay_mismatch += warm_log.replay_mismatch;

  // Reference check of every result, warm-up batches included.
  bool correct = true;
  std::unordered_map<std::string, uint64_t> reference;
  std::map<std::string, bool> template_nonempty;
  int64_t mismatches = 0;
  for (const Check& c : all.checks) {
    const std::string sql = ToSql(c.spec);
    auto it = reference.find(sql);
    if (it == reference.end()) {
      it = reference
               .emplace(sql, Digest(ReferenceAnswer(c.spec, inst->db.cols)))
               .first;
    }
    if (it->second != c.digest) {
      if (++mismatches <= 3) {
        std::fprintf(stderr, "result mismatch (%zu rows): %s\n", c.rows,
                     sql.c_str());
      }
      correct = false;
    }
    bool& nonempty = template_nonempty[TemplateName(c.spec.tmpl)];
    nonempty = nonempty || c.rows > 0;
  }
  for (const auto& [name, nonempty] : template_nonempty) {
    if (!nonempty) {
      std::fprintf(stderr, "template %s returned empty results on every "
                           "batch\n", name.c_str());
      correct = false;
    }
  }
  if (all.bad_benefit > 0) {
    std::fprintf(stderr, "%lld batches with bc(S) > bc(empty set)\n",
                 static_cast<long long>(all.bad_benefit));
    correct = false;
  }
  if (all.replay_mismatch > 0) {
    std::fprintf(stderr, "%lld batches where the replay did not reproduce "
                         "the session's plan and results\n",
                 static_cast<long long>(all.replay_mismatch));
    correct = false;
  }
  if (all.failed > 0) {
    std::fprintf(stderr, "failed batch: %s\n", all.first_error.c_str());
  }
  if (all.batch_ms.empty()) {
    std::fprintf(stderr, "no batch completed in the timed phase\n");
    return 1;
  }

  // Cache and store traffic over the timed phase.
  const double batches = static_cast<double>(all.batch_ms.size());
  const int64_t cache_hits = cache1.hits - cache0.hits;
  const int64_t cache_lookups = cache1.lookups - cache0.lookups;
  // Store traffic: the per-run stores plus the cache's own store.
  mqo::MatStoreStats store = all.store;
  store.puts += cache_store1.puts - cache_store0.puts;
  store.evictions += cache_store1.evictions - cache_store0.evictions;
  store.spill_writes += cache_store1.spill_writes - cache_store0.spill_writes;
  store.reloads += cache_store1.reloads - cache_store0.reloads;
  store.bytes_spilled +=
      cache_store1.bytes_spilled - cache_store0.bytes_spilled;
  store.bytes_reloaded +=
      cache_store1.bytes_reloaded - cache_store0.bytes_reloaded;
  if (w.kind == WorkloadKind::kSessionCache &&
      (cache_hits <= 0 || store.spill_writes <= 0)) {
    std::fprintf(stderr, "session-cache: %lld cache hits, %lld spill "
                         "writes; both must be positive\n",
                 static_cast<long long>(cache_hits),
                 static_cast<long long>(store.spill_writes));
    correct = false;
  }

  std::printf("workload %s seed %llu: %zu timed batches, %lld queries, "
              "%d warm-up batches, data %zu rows\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              all.batch_ms.size(), static_cast<long long>(all.attempted),
              warm_batches, inst->db.total_rows);
  std::printf("host_probe_ms before %.3f after %.3f\n", probe_before,
              probe_after);

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!args.trace) {
    const struct rusage ru = [] {
      struct rusage r{};
      getrusage(RUSAGE_SELF, &r);
      return r;
    }();
    const int64_t completed = all.attempted - all.failed;
    metrics = {
        {"batch_ms", {Median(all.batch_ms), "ms"}},
        {"queries_per_s", {completed / phase_s, "1/s"}},
        {"setup_s", {Median(setup_s), "s"}},
        {"peak_rss_mb", {ru.ru_maxrss / 1024.0, "MB"}},
    };
  } else {
    auto med = [&](double ReplayStages::*f) {
      std::vector<double> v;
      for (const auto& s : all.stages) v.push_back(s.*f);
      return Median(v);
    };
    auto mean = [&](double ReplayStages::*f) {
      std::vector<double> v;
      for (const auto& s : all.stages) v.push_back(s.*f);
      return Mean(v);
    };
    double sum_total = 0, sum_exec = 0, sum_opt = 0;
    for (const auto& s : all.stages) {
      sum_total += s.total_ms;
      sum_exec += s.execute_ms;
      sum_opt += s.OptimizeMs();
    }
    const double exec_share = sum_total > 0 ? sum_exec / sum_total : 0;
    const double opt_share = sum_total > 0 ? sum_opt / sum_total : 0;
    std::printf("layer shares of replayed batch time: optimize (parser, "
                "lqdag, optimizer, mqo) %.3f, vexec %.3f, other %.3f\n",
                opt_share, exec_share, 1 - opt_share - exec_share);
    if (w.kind == WorkloadKind::kTpcdExec && exec_share < 0.5) {
      std::fprintf(stderr, "tpcd-exec: vexec takes %.3f of a batch, "
                           "expected most\n", exec_share);
      correct = false;
    }
    if (w.kind == WorkloadKind::kDashboardOpt && opt_share < 0.5) {
      std::fprintf(stderr, "dashboard-opt: planning layers take %.3f of a "
                           "batch, expected most\n", opt_share);
      correct = false;
    }
    auto per_batch = [&](double total) { return total / batches; };
    metrics = {
        {"parser.parse_ms", {med(&ReplayStages::parse_ms), "ms"}},
        {"lqdag.build_ms", {med(&ReplayStages::lqdag_ms), "ms"}},
        {"lqdag.classes",
         {mean(&ReplayStages::classes), "count"}},
        {"stats.analyze_ms", {analyze_ms, "ms"}},
        {"optimizer.setup_ms", {med(&ReplayStages::optimizer_setup_ms), "ms"}},
        {"optimizer.plan_ms", {med(&ReplayStages::plan_ms), "ms"}},
        {"optimizer.costings",
         {mean(&ReplayStages::costings), "count"}},
        {"mqo.greedy_ms", {med(&ReplayStages::greedy_ms), "ms"}},
        {"mqo.function_evals",
         {mean(&ReplayStages::function_evals),
          "count"}},
        {"mqo.bc_evals",
         {mean(&ReplayStages::bc_evals), "count"}},
        {"mqo.explain_ms", {med(&ReplayStages::explain_ms), "ms"}},
        {"mqo.materialized",
         {mean(&ReplayStages::materialized),
          "count"}},
        {"mqo.predicted_benefit",
         {mean(&ReplayStages::predicted_benefit),
          "ms"}},
        {"mqo.realized_saved_ms",
         {mean(&ReplayStages::realized_saved_ms),
          "ms"}},
        {"vexec.execute_ms", {med(&ReplayStages::execute_ms), "ms"}},
        {"vexec.materialize_ms", {med(&ReplayStages::materialize_ms), "ms"}},
        {"vexec.segment_rows",
         {mean(&ReplayStages::segment_rows),
          "count"}},
        {"storage.puts", {per_batch(store.puts), "count"}},
        {"storage.evictions", {per_batch(store.evictions), "count"}},
        {"storage.spill_writes", {per_batch(store.spill_writes), "count"}},
        {"storage.reloads", {per_batch(store.reloads), "count"}},
        {"storage.bytes_spilled",
         {per_batch(static_cast<double>(store.bytes_spilled)), "B"}},
        {"storage.bytes_reloaded",
         {per_batch(static_cast<double>(store.bytes_reloaded)), "B"}},
        {"storage.cache_lookups", {per_batch(cache_lookups), "count"}},
        {"storage.cache_hits", {per_batch(cache_hits), "count"}},
        {"storage.cache_hit_ratio",
         {cache_lookups > 0 ? static_cast<double>(cache_hits) / cache_lookups
                            : 0.0,
          "ratio"}},
        {"storage.resident_bytes",
         {static_cast<double>(resident_bytes), "B"}},
        {"session.overhead_ms", {Median(all.overhead_ms), "ms"}},
        {"session.blocked_ms", {Median(all.blocked_ms), "ms"}},
    };
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out, std::ios::trunc);
      out << spans.ToChromeJson();
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        return 1;
      }
    }
  }

  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(all.attempted) +
                     ", \"failed\": " + std::to_string(all.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].first + "\": {\"value\": " +
            Fmt(metrics[i].second.first) + ", \"unit\": \"" +
            metrics[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace mqobench

int main(int argc, char** argv) { return mqobench::Main(argc, argv); }
