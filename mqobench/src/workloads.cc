#include "workloads.h"

#include <algorithm>
#include <random>

#include "catalog/catalog.h"

namespace mqobench {

namespace {

int64_t Day(const char* iso) { return mqo::DateToDays(iso); }

/// Deterministic stream for one (seed, client, batch) triple.
class Draw {
 public:
  Draw(uint64_t seed, int client, int64_t index)
      : rng_(seed * 0x9e3779b97f4a7c15ull ^
             (static_cast<uint64_t>(client) << 48) ^
             static_cast<uint64_t>(index + 1) * 0xbf58476d1ce4e5b9ull) {}
  int64_t Int(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(rng_() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }
  const std::string& Pick(const std::vector<std::string>& v) {
    return v[static_cast<size_t>(Int(0, static_cast<int64_t>(v.size()) - 1))];
  }
  std::mt19937_64& engine() { return rng_; }

 private:
  std::mt19937_64 rng_;
};

int64_t YearStart(int64_t year) {
  return Day((std::to_string(year) + "-01-01").c_str());
}

/// One TPC-D template query with constants drawn from `d`.
QuerySpec TpcdQuery(Template t, Draw* d) {
  QuerySpec q;
  q.tmpl = t;
  switch (t) {
    case Template::kQ1:
      q.d1 = Day("1998-12-01") - d->Int(60, 120);
      break;
    case Template::kQ3:
      q.s1 = d->Pick(MarketSegments());
      q.d1 = Day("1995-03-01") + d->Int(0, 30);
      break;
    case Template::kQ5:
      q.s1 = d->Pick(RegionNames());
      q.d1 = YearStart(d->Int(1993, 1997));
      q.d2 = q.d1 + 365;
      break;
    case Template::kQ6:
      q.d1 = YearStart(d->Int(1993, 1997));
      q.d2 = q.d1 + 365;
      q.n = d->Int(24, 25);
      break;
    case Template::kQ7: {
      q.s1 = d->Pick(NationNames());
      do {
        q.s2 = d->Pick(NationNames());
      } while (q.s2 == q.s1);
      q.d1 = YearStart(d->Int(1993, 1995));
      q.d2 = q.d1 + 730;
      break;
    }
    case Template::kQ8:
      q.s1 = d->Pick(RegionNames());
      q.s2 = d->Pick(PartTypes());
      q.d1 = YearStart(1995) + 181 * d->Int(0, 1);
      q.d2 = q.d1 + 730;
      break;
    case Template::kQ9:
      q.n = d->Int(23, 25);
      break;
    case Template::kQ10:
      q.d1 = YearStart(1993) + 91 * d->Int(0, 7);
      q.d2 = q.d1 + 91;
      break;
    default:
      break;
  }
  return q;
}

/// Dashboard shape `shape` (0..3) over the window starting at day `start`:
/// 90-day order windows, 365-day shipping windows.
QuerySpec DashboardQuery(int shape, int64_t start) {
  static const Template kShapes[] = {Template::kDashCustomer,
                                     Template::kDashOrder,
                                     Template::kDashRevenue,
                                     Template::kDashNation};
  QuerySpec q;
  q.tmpl = kShapes[shape];
  q.d1 = start;
  q.d2 = start + (shape < 2 ? 90 : 365);
  q.n = 24;
  return q;
}

}  // namespace

std::vector<QuerySpec> Workload::Batch(uint64_t seed, int client,
                                       int64_t index) const {
  // The timed stream repeats every kCycle batches, so a run of any length
  // past two cycles measures the same batch mix, and the peak memory of the
  // heaviest batch is always reached.
  if (index >= 0) index %= kCycle;
  Draw d(seed, client, index);
  std::vector<QuerySpec> batch;
  switch (kind) {
    case WorkloadKind::kTpcdExec: {
      // Every template twice, each time with fresh constants.
      for (Template t : {Template::kQ1, Template::kQ3, Template::kQ5,
                         Template::kQ6, Template::kQ7, Template::kQ8,
                         Template::kQ9, Template::kQ10}) {
        batch.push_back(TpcdQuery(t, &d));
        batch.push_back(TpcdQuery(t, &d));
      }
      break;
    }
    case WorkloadKind::kDashboardOpt: {
      // 800 queries: the four dashboard shapes over 100 date windows 15 days
      // apart, each (shape, window) twice, so the batch holds exact
      // duplicates and overlapping windows. The windows roll forward 30
      // days per batch of the cycle.
      constexpr int kQueries = 800;
      constexpr int kWindows = 100;
      const int64_t base =
          YearStart(1993) +
          30 * ((index + 12 + static_cast<int64_t>(seed % 12)) % 12);
      for (int j = 0; j < kQueries; ++j) {
        const int64_t window = (j / 4) % kWindows;
        batch.push_back(DashboardQuery(j % 4, base + 15 * window));
      }
      std::shuffle(batch.begin(), batch.end(), d.engine());
      break;
    }
    case WorkloadKind::kSessionCache: {
      // The four dashboard shapes over one date window from a pool of six,
      // one window per batch of the cycle, the clients half a cycle apart.
      // Each window's filtered orders-lineitem join and filtered lineitem
      // scan are shared within the batch, so they materialize; the pool
      // makes later batches, of either client, ask for them again.
      const int64_t window = (index + 1 + 3 * client) % kCycle;
      const int64_t start =
          YearStart(1993) + 60 * (window + static_cast<int64_t>(seed % 7));
      for (int shape = 0; shape < 4; ++shape) {
        batch.push_back(DashboardQuery(shape, start));
      }
      break;
    }
  }
  return batch;
}

bool FindWorkload(const std::string& name, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "tpcd-exec") {
    w.kind = WorkloadKind::kTpcdExec;
    w.sf = 0.03;
  } else if (name == "dashboard-opt") {
    w.kind = WorkloadKind::kDashboardOpt;
    w.sf = 0.001;
  } else if (name == "session-cache") {
    w.kind = WorkloadKind::kSessionCache;
    w.sf = 0.02;
    w.clients = 2;
    w.shared_cache = true;
    w.budget_bytes = 1u << 20;
  } else {
    return false;
  }
  *out = w;
  return true;
}

}  // namespace mqobench
