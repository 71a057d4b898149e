// Execution-time knobs shared by both engines' callers.
//
// ExecOptions travels from the facade (MqoOptions::exec) through the backend
// dispatch (vexec/backend.h) into the engine that runs the plan. The
// scheduling knobs feed the pipeline driver (storage/pipeline.h) that
// schedules every scan, filter, join build/probe and aggregation in the
// vectorized engine (the row interpreter is always serial and ignores
// them). The memory-governance knobs configure the segment store
// (storage/mat_store.h) the materialization driver opens for each
// consolidated run, whichever engine runs it: a resident-byte budget
// and the spill directory evicted segments are written to. Results are
// identical for every setting — threading and spilling are performance
// decisions, never semantic ones.

#ifndef MQO_EXEC_EXEC_OPTIONS_H_
#define MQO_EXEC_EXEC_OPTIONS_H_

#include "storage/mat_store.h"
#include "storage/pipeline.h"

namespace mqo {

class ObsContext;
class SharedSegmentCache;

/// Execution-time knobs: the pipeline driver's scheduling (`num_threads`
/// worker threads, 1 = serial; `morsel_rows` per scheduling granule) plus
/// the materialized-segment store's memory governance. Results are identical
/// for every setting.
struct ExecOptions : PipelineOptions {
  /// Resident-byte budget of each run's MatStore; 0 = unlimited. The
  /// environment variable MQO_MAT_BUDGET_BYTES overrides an unset budget
  /// (CI uses it to force every segment through the spill path).
  size_t mat_budget_bytes = 0;
  /// Spill directory for evicted segments; empty = a unique temp directory.
  /// MQO_SPILL_DIR overrides an empty value.
  std::string mat_spill_dir;
  /// Bloom-filter pushdown (sideways information passing): hash-join builds
  /// publish a Bloom filter over their keys, and probe-side scan pipelines
  /// drop rows (and skip whole morsels via zone min/max) that cannot match
  /// before materializing chunks. Conservative — never a false negative —
  /// so results are identical with it on or off; off exists for benching.
  bool bloom_filters = true;
  /// Zone-map scan skipping: scan pipelines consult a column's persisted
  /// per-zone min/max to skip whole zones for any constant numeric filter —
  /// no join upstream required. Conservative (a pruned zone contains no
  /// passing row), so results are identical with it on or off. Tri-state:
  /// -1 = unset (the MQO_ZONE_MAPS environment variable decides, "0" = off,
  /// default on), 0 = off, 1 = on.
  int zone_maps = -1;
  /// Build-time numeric compression of *materialized segments* (base tables
  /// are governed by ColumnStore build flags): FOR-encode int64 columns when
  /// that shrinks them and attach zone maps, so MatStore budget accounting
  /// sees encoded bytes and segment reads can zone-skip. Tri-state like
  /// zone_maps; MQO_NUM_COMPRESSION fills the unset value.
  int numeric_compression = -1;
  /// Observability sink (obs/obs.h): pipeline/operator spans, store events,
  /// executor metrics. Null = off; execution is unaffected either way.
  ObsContext* obs = nullptr;
  /// Cross-batch semantic segment cache (storage/segment_cache.h), shared
  /// across a session's concurrent batches. When set, the materialization
  /// driver (ExecuteConsolidatedResult, vexec/backend.h) first consults the
  /// cache by structural class fingerprint for each chosen class (a hit
  /// skips the compute entirely) and publishes freshly computed segments
  /// back. Null = per-run materialization only. Results are identical either way — the
  /// cache can only serve a segment whose fingerprint and base-table
  /// versions both match.
  SharedSegmentCache* shared_cache = nullptr;

  /// `zone_maps` with the environment fallback resolved.
  bool zone_maps_enabled() const;
  /// `numeric_compression` with the environment fallback resolved.
  bool numeric_compression_enabled() const;

  /// The pipeline-driver view of these knobs.
  const PipelineOptions& pipeline() const { return *this; }

  /// The store configuration these knobs describe, with environment
  /// overrides applied.
  MatStoreOptions mat_store() const;
};

}  // namespace mqo

#endif  // MQO_EXEC_EXEC_OPTIONS_H_
