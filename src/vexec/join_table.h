// The shared equi-join hash table: built once in parallel, probed
// concurrently, chunk-at-a-time.
//
// Layout: a flat CSR table. Every build row's key hash goes through one
// avalanche finalizer (MixHash64) and its low bits pick one of a
// power-of-two number of buckets (at least one bucket per build row). A
// bucket offset array indexes one contiguous entry array holding, per
// entry, the build row (ascending within each bucket) and its full key
// hash, which rejects non-matching entries before any key compare.
//
// Build: (1) key hashes for every build row, morsel-parallel into per-row
// slots (FOR-encoded key blocks unpacked once, into the table's decoded
// copy of that key); (2) a bucket histogram, a prefix sum and a scatter in
// row order. Workers of the histogram and scatter passes own disjoint
// bucket ranges and each scans the hash array in row order, so the table is
// byte-identical for every thread count.
//
// Probe: ProbeRange takes a whole row range. Pass 1 hashes the range column
// by column (the build's hash kernel) and resolves dictionary keys to build
// codes, dropping rows whose value is absent from the build dictionary;
// pass 2 walks each remaining row's bucket with typed key compares — decoded
// numbers, or dictionary codes when both sides are dictionary-encoded.
// Matches come out in probe-row order, then ascending build row.
//
// The build also publishes a JoinBloomFilter over the key hashes (plus a
// numeric min/max zone for single-key joins): probe-side pipelines test it
// before probing — sideways information passing — and skip rows (or whole
// morsels, via the zone) that cannot match. The filter is conservative: no
// false negatives, so dropping rows it rejects preserves inner-join
// semantics exactly. With mixed hashes it keeps its ~2% false-positive rate
// on integer keys too.
//
// Dictionary-encoded string keys probe on codes: if both sides share a
// dictionary, key equality is an int32 compare; if the dictionaries differ,
// a probe-code→build-code remap (two-pointer merge of the sorted
// dictionaries, cached per probe dictionary) gives the same O(1) compare and
// an early reject when the probe value is absent from the build dictionary.
// Unencoded string columns fall back to the generic cell compare.
//
// An empty key set hashes every row to the same value, so one bucket holds
// every build row: probing any row matches all of them, which is exactly the
// row engine's cross-product semantics for condition-less joins.

#ifndef MQO_VEXEC_JOIN_TABLE_H_
#define MQO_VEXEC_JOIN_TABLE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "algebra/logical_expr.h"
#include "storage/column_batch.h"
#include "storage/pipeline.h"

namespace mqo {

/// One resolved join: condition column indices and the joined output schema.
struct JoinSpec {
  struct Cond {
    int left;   ///< Key column index on the probe (left) side.
    int right;  ///< Key column index on the build (right) side.
  };
  std::vector<Cond> conds;
  std::vector<ColumnRef> out_names;  ///< Left names then right names.
};

/// Resolves `predicate` against the two schemas (either orientation per
/// condition, as JoinRows does) and rejects overlapping output aliases with
/// the row engine's Unimplemented status.
Result<JoinSpec> ResolveJoinSpec(const std::vector<ColumnRef>& left,
                                 const std::vector<ColumnRef>& right,
                                 const JoinPredicate& predicate);

/// Full (finalized) key hash of one row: the value every build row is
/// bucketed under and every probe row is looked up with. The batched
/// kernels compute bit-identical values column by column.
uint64_t JoinKeyHash(const ColumnBatch& batch, const std::vector<int>& cols,
                     uint32_t row);

class JoinBloomFilter;

/// Refines `sel` (row positions into `batch`) to the rows whose join-key
/// hash may be in `bloom`. With `use_range` (single numeric key), rows whose
/// key falls outside the filter's published min/max are dropped too. The
/// surviving set is a pure per-row function — independent of morsel
/// boundaries and thread counts. Returns the number of rows dropped.
size_t BloomRefineSel(const ColumnBatch& batch, const std::vector<int>& keys,
                      const JoinBloomFilter& bloom, bool use_range,
                      SelVector* sel);

/// Min/max of a numeric column over rows [begin, end), as flat typed loops.
/// Precondition: begin < end.
void NumericMinMax(const ColumnVector& col, uint32_t begin, uint32_t end,
                   double* lo, double* hi);

/// Compact Bloom filter over a build side's key hashes, plus an optional
/// numeric key range for zone (min/max) pruning. Immutable after Build;
/// MayContain never returns a false negative.
class JoinBloomFilter {
 public:
  /// ~12 bits per key with two probe positions (~2% false positives on
  /// finalized hashes).
  static std::shared_ptr<JoinBloomFilter> Build(
      const std::vector<uint64_t>& hashes);

  bool MayContain(uint64_t h) const {
    const uint64_t m = h * 0xff51afd7ed558ccdull;
    const uint64_t i1 = h & bit_mask_;
    const uint64_t i2 = (m ^ (m >> 29)) & bit_mask_;
    return ((bits_[i1 >> 6] >> (i1 & 63)) & (bits_[i2 >> 6] >> (i2 & 63)) &
            1) != 0;
  }

  /// Zone range over a single numeric build key (unset for string or
  /// multi-column keys).
  bool has_range() const { return has_range_; }
  double min_key() const { return min_key_; }
  double max_key() const { return max_key_; }

  void SetRange(double min_key, double max_key) {
    has_range_ = true;
    min_key_ = min_key;
    max_key_ = max_key;
  }

 private:
  std::vector<uint64_t> bits_;
  uint64_t bit_mask_ = 0;  ///< Bit count minus one (a power of two).
  bool has_range_ = false;
  double min_key_ = 0.0;
  double max_key_ = 0.0;
};

/// Read-only hash table over a build-side batch, shared across probe
/// workers.
class JoinHashTable {
 public:
  /// Builds over `build`, keyed by `key_cols` (column indices into `build`).
  /// `options.num_threads > 1` parallelizes both build phases.
  static JoinHashTable Build(ColumnBatch build, std::vector<int> key_cols,
                             const PipelineOptions& options);

  /// Per-probe-batch key resolution: how each key column compares against
  /// its build counterpart. Built once per chunk by Prepare(), then shared
  /// by every row probe into that chunk.
  struct PreparedProbe {
    enum class Mode : uint8_t {
      kGeneric,   ///< Value-semantics CellsEqual.
      kSameDict,  ///< Both sides share one dictionary: compare codes.
      kRemap,     ///< Different dictionaries: probe code → build code map.
    };
    struct Key {
      Mode mode = Mode::kGeneric;
      const std::vector<int32_t>* remap = nullptr;  ///< For kRemap.
    };
    std::vector<Key> keys;
    int dict_keys = 0;  ///< Keys resolved to code compares (obs: dict_hits).
    /// Pins cached remap vectors (and their dictionaries) for this probe.
    std::vector<std::shared_ptr<const std::vector<int32_t>>> pinned;
  };

  /// Resolves the probe-side key columns against the build side, building
  /// (or fetching from the cache) dictionary remaps where the sides use
  /// different dictionaries. Thread-safe.
  PreparedProbe Prepare(const ColumnBatch& probe,
                        const std::vector<int>& probe_keys) const;

  /// Appends one (probe row, build row) pair to (`left`, `right`) for every
  /// build row whose keys equal probe row r of `probe`, for r in [begin,
  /// end) (key columns `probe_keys`, parallel to the build key columns).
  /// Pairs come in ascending probe row, then ascending build row. `prepared`
  /// must come from Prepare(probe, probe_keys). Thread-safe: the table is
  /// immutable.
  void ProbeRange(const PreparedProbe& prepared, const ColumnBatch& probe,
                  const std::vector<int>& probe_keys, uint32_t begin,
                  uint32_t end, SelVector* left, SelVector* right) const;

  /// The build-side batch (for gathering matched rows).
  const ColumnBatch& build() const { return build_; }

  /// Bloom filter over the build keys (null for condition-less joins).
  const std::shared_ptr<const JoinBloomFilter>& bloom() const {
    return bloom_;
  }

  /// Bytes held by the bucket structure (offsets, entries, decoded keys),
  /// excluding the build batch itself.
  size_t TableBytes() const;

  /// Dictionary remaps built so far (obs: vexec.dict_remap).
  int64_t remap_builds() const {
    return remap_->builds.load(std::memory_order_relaxed);
  }

 private:
  // Remap cache: (key position, probe dictionary) → probe-code→build-code
  // map. Keys hold the probe dictionary alive, so a cached entry can never
  // be confused with a new dictionary reusing the same address; values pin
  // the maps handed out via PreparedProbe. Boxed so the table stays movable
  // (Build returns by value).
  struct RemapState {
    std::mutex mu;
    std::map<std::pair<size_t, std::shared_ptr<const ColumnDict>>,
             std::shared_ptr<const std::vector<int32_t>>>
        cache;
    std::atomic<int64_t> builds{0};
  };

  ColumnBatch build_;
  std::vector<int> key_cols_;
  uint64_t bucket_mask_ = 0;  ///< Bucket count (a power of two) minus one.
  /// Bucket b's entries are [offsets_[b], offsets_[b + 1]).
  std::vector<uint32_t> offsets_{0, 0};
  std::vector<uint32_t> rows_;    ///< Entry build rows, ascending per bucket.
  std::vector<uint64_t> hashes_;  ///< Entry full key hashes.
  /// Per key column: FOR-encoded build keys decoded once; empty for plain,
  /// double and string columns, which compare in place.
  std::vector<std::vector<int64_t>> decoded_keys_;
  std::shared_ptr<const JoinBloomFilter> bloom_;
  std::unique_ptr<RemapState> remap_ = std::make_unique<RemapState>();
};

}  // namespace mqo

#endif  // MQO_VEXEC_JOIN_TABLE_H_
