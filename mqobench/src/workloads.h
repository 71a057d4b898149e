// The benchmark's workloads: seeded SQL batch streams sent by closed-loop
// clients against one MqoSession.
//
//   tpcd-exec      execution-bound: the paper's batched templates (Q3, Q5,
//                  Q7, Q8, Q9, Q10, each as a pair, plus Q1 and Q6 pairs)
//                  with constants drawn fresh per batch; one client.
//   dashboard-opt  optimizer-bound: several hundred queries per batch from
//                  four shapes over rolling date windows on small data,
//                  mixing exact duplicates with overlapping queries.
//   session-cache  cache- and store-bound: two clients share the session's
//                  segment cache under a budget below the working set,
//                  with templates repeating from a small constant pool.

#ifndef MQOBENCH_WORKLOADS_H_
#define MQOBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "reference.h"

namespace mqobench {

enum class WorkloadKind { kTpcdExec, kDashboardOpt, kSessionCache };

/// Batches per cycle of a client's timed stream.
constexpr int64_t kCycle = 6;

struct Workload {
  WorkloadKind kind = WorkloadKind::kTpcdExec;
  std::string name;
  double sf = 0;                ///< TPC-D scale factor of the data.
  int clients = 1;              ///< Closed-loop client threads.
  bool shared_cache = false;    ///< Session's cross-batch segment cache.
  size_t budget_bytes = 0;      ///< Store and cache budget; 0 = unlimited.

  /// Batch `index` of client `client` (the stream repeats every kCycle
  /// batches); index -1 is the warm-up batch.
  std::vector<QuerySpec> Batch(uint64_t seed, int client,
                               int64_t index) const;
};

/// The workload called `name`, or false.
bool FindWorkload(const std::string& name, Workload* out);

}  // namespace mqobench

#endif  // MQOBENCH_WORKLOADS_H_
