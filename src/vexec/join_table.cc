#include "vexec/join_table.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"

namespace mqo {

namespace {

constexpr uint64_t kJoinHashSeed = 0x9ae16a3b2f90404full;

/// Smallest power of two >= n (n >= 1).
size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Canonical hash of a numeric key: -0.0 folds into 0.0 because key
/// equality compares with == while HashDouble hashes bit patterns.
inline uint64_t HashNumber(double d) { return HashDouble(d == 0.0 ? 0.0 : d); }

/// One key column's cells over a row range [begin, end) as a flat typed
/// array indexed from the range start: plain payloads point into the
/// column, FOR-encoded blocks are unpacked once into caller-owned storage.
struct KeySpan {
  enum class Kind : uint8_t { kInt, kDouble, kCode, kCell };
  Kind kind = Kind::kCell;
  const int64_t* ints = nullptr;     ///< kInt.
  const double* doubles = nullptr;   ///< kDouble.
  const int32_t* codes = nullptr;    ///< kCode: dictionary codes.
  const ColumnVector* col = nullptr;
  uint32_t begin = 0;
};

/// Views rows [begin, end) of `col`. `decoded` receives the values of a
/// FOR-encoded column and must hold end - begin slots.
KeySpan LoadKeySpan(const ColumnVector& col, uint32_t begin, uint32_t end,
                    int64_t* decoded) {
  KeySpan span;
  span.col = &col;
  span.begin = begin;
  switch (col.type()) {
    case VecType::kInt64:
      span.kind = KeySpan::Kind::kInt;
      if (col.for_encoded()) {
        col.for_column()->Unpack(begin, end, decoded);
        span.ints = decoded;
      } else {
        span.ints = col.ints().data() + begin;
      }
      break;
    case VecType::kDouble:
      span.kind = KeySpan::Kind::kDouble;
      span.doubles = col.doubles().data() + begin;
      break;
    case VecType::kString:
      if (col.dict_encoded()) {
        span.kind = KeySpan::Kind::kCode;
        span.codes = col.codes().data() + begin;
      }
      break;
  }
  return span;
}

/// Mixes `n` cells of `span` into the running hashes `h[0 .. n)`: one flat
/// loop per physical form, the type dispatch hoisted out of the row loop.
void MixKeySpan(const KeySpan& span, uint32_t n, uint64_t* h) {
  switch (span.kind) {
    case KeySpan::Kind::kInt:
      for (uint32_t j = 0; j < n; ++j) {
        h[j] = HashCombine(h[j], HashNumber(static_cast<double>(span.ints[j])));
      }
      break;
    case KeySpan::Kind::kDouble:
      for (uint32_t j = 0; j < n; ++j) {
        h[j] = HashCombine(h[j], HashNumber(span.doubles[j]));
      }
      break;
    case KeySpan::Kind::kCode: {
      const uint64_t* hashes = span.col->dict()->hashes.data();
      for (uint32_t j = 0; j < n; ++j) {
        h[j] = HashCombine(h[j], hashes[span.codes[j]]);
      }
      break;
    }
    case KeySpan::Kind::kCell:
      for (uint32_t j = 0; j < n; ++j) {
        h[j] = HashCombine(h[j], span.col->HashCell(span.begin + j));
      }
      break;
  }
}

/// Finalized key hashes for rows [begin, end), written to `out[r - begin]`.
/// `decoded[c]` (null = column c is not FOR-encoded) receives key column
/// c's decoded values over the range; `spans`, when non-null, receives the
/// typed views the probe kernel compares keys through.
void HashKeyRange(const ColumnBatch& batch, const std::vector<int>& cols,
                  uint32_t begin, uint32_t end, int64_t* const* decoded,
                  uint64_t* out, KeySpan* spans = nullptr) {
  const uint32_t n = end - begin;
  for (uint32_t j = 0; j < n; ++j) out[j] = kJoinHashSeed;
  for (size_t c = 0; c < cols.size(); ++c) {
    const KeySpan span =
        LoadKeySpan(batch.columns[cols[c]], begin, end, decoded[c]);
    MixKeySpan(span, n, out);
    if (spans != nullptr) spans[c] = span;
  }
  for (uint32_t j = 0; j < n; ++j) out[j] = MixHash64(out[j]);
}

/// Finalized key hashes for the selected rows, written to `out[j]` for
/// `sel[j]`. Same per-column dispatch as HashKeyRange, indirected through
/// the selection vector.
void HashKeySel(const ColumnBatch& batch, const std::vector<int>& cols,
                const uint32_t* sel, size_t n, uint64_t* out) {
  for (size_t j = 0; j < n; ++j) out[j] = kJoinHashSeed;
  for (int c : cols) {
    const ColumnVector& col = batch.columns[c];
    switch (col.type()) {
      case VecType::kInt64: {
        if (col.for_encoded()) {
          // Selected rows are sparse; per-row decode beats block unpacking.
          const ForColumn& fc = *col.for_column();
          for (size_t j = 0; j < n; ++j) {
            out[j] = HashCombine(
                out[j], HashNumber(static_cast<double>(fc.ValueAt(sel[j]))));
          }
          break;
        }
        const int64_t* v = col.ints().data();
        for (size_t j = 0; j < n; ++j) {
          out[j] =
              HashCombine(out[j], HashNumber(static_cast<double>(v[sel[j]])));
        }
        break;
      }
      case VecType::kDouble: {
        const double* v = col.doubles().data();
        for (size_t j = 0; j < n; ++j) {
          out[j] = HashCombine(out[j], HashNumber(v[sel[j]]));
        }
        break;
      }
      case VecType::kString: {
        if (col.dict_encoded()) {
          const int32_t* codes = col.codes().data();
          const uint64_t* hashes = col.dict()->hashes.data();
          for (size_t j = 0; j < n; ++j) {
            out[j] = HashCombine(out[j], hashes[codes[sel[j]]]);
          }
        } else {
          for (size_t j = 0; j < n; ++j) {
            out[j] = HashCombine(out[j], col.HashCell(sel[j]));
          }
        }
        break;
      }
    }
  }
  for (size_t j = 0; j < n; ++j) out[j] = MixHash64(out[j]);
}

}  // namespace

uint64_t JoinKeyHash(const ColumnBatch& batch, const std::vector<int>& cols,
                     uint32_t row) {
  uint64_t h = kJoinHashSeed;
  for (int c : cols) h = HashCombine(h, batch.columns[c].HashCell(row));
  return MixHash64(h);
}

size_t BloomRefineSel(const ColumnBatch& batch, const std::vector<int>& keys,
                      const JoinBloomFilter& bloom, bool use_range,
                      SelVector* sel) {
  const size_t n = sel->size();
  if (n == 0) return 0;
  uint32_t* s = sel->data();
  std::vector<uint64_t> hashes(n);
  HashKeySel(batch, keys, s, n, hashes.data());
  const double lo = bloom.min_key();
  const double hi = bloom.max_key();
  const ColumnVector* range_col =
      use_range ? &batch.columns[keys[0]] : nullptr;
  size_t k = 0;
  for (size_t j = 0; j < n; ++j) {
    const uint32_t i = s[j];
    bool keep = bloom.MayContain(hashes[j]);
    if (keep && range_col != nullptr) {
      const double v = range_col->Number(i);
      keep = v >= lo && v <= hi;
    }
    s[k] = i;
    k += keep ? 1 : 0;
  }
  sel->resize(k);
  return n - k;
}

void NumericMinMax(const ColumnVector& col, uint32_t begin, uint32_t end,
                   double* lo, double* hi) {
  double mn = col.Number(begin);
  double mx = mn;
  if (col.for_encoded()) {
    // Block metadata answers fully covered blocks; only the (at most two)
    // partial edge blocks decode per row.
    const ForColumn& fc = *col.for_column();
    for (size_t b = begin / kForBlockRows; b * kForBlockRows < end; ++b) {
      const uint32_t rb =
          std::max<uint32_t>(begin, static_cast<uint32_t>(b * kForBlockRows));
      const uint32_t re = std::min<uint32_t>(
          end, static_cast<uint32_t>((b + 1) * kForBlockRows));
      const ForBlock& blk = fc.blocks()[b];
      if (rb == b * kForBlockRows && re - rb == fc.BlockRows(b)) {
        mn = std::min(mn, static_cast<double>(blk.reference));
        mx = std::max(mx, static_cast<double>(static_cast<int64_t>(
                              static_cast<uint64_t>(blk.reference) +
                              blk.max_delta)));
        continue;
      }
      for (uint32_t r = rb; r < re; ++r) {
        const double d = static_cast<double>(fc.ValueAt(r));
        mn = std::min(mn, d);
        mx = std::max(mx, d);
      }
    }
  } else if (col.type() == VecType::kInt64) {
    const int64_t* v = col.ints().data();
    for (uint32_t r = begin + 1; r < end; ++r) {
      const double d = static_cast<double>(v[r]);
      mn = std::min(mn, d);
      mx = std::max(mx, d);
    }
  } else {
    const double* v = col.doubles().data();
    for (uint32_t r = begin + 1; r < end; ++r) {
      mn = std::min(mn, v[r]);
      mx = std::max(mx, v[r]);
    }
  }
  *lo = mn;
  *hi = mx;
}

std::shared_ptr<JoinBloomFilter> JoinBloomFilter::Build(
    const std::vector<uint64_t>& hashes) {
  auto filter = std::make_shared<JoinBloomFilter>();
  const size_t bits = NextPow2(std::max<size_t>(512, hashes.size() * 12));
  filter->bits_.assign(bits / 64, 0);
  filter->bit_mask_ = bits - 1;
  for (uint64_t h : hashes) {
    const uint64_t m = h * 0xff51afd7ed558ccdull;
    const uint64_t i1 = h & filter->bit_mask_;
    const uint64_t i2 = (m ^ (m >> 29)) & filter->bit_mask_;
    filter->bits_[i1 >> 6] |= uint64_t{1} << (i1 & 63);
    filter->bits_[i2 >> 6] |= uint64_t{1} << (i2 & 63);
  }
  return filter;
}

Result<JoinSpec> ResolveJoinSpec(const std::vector<ColumnRef>& left,
                                 const std::vector<ColumnRef>& right,
                                 const JoinPredicate& predicate) {
  JoinSpec spec;
  spec.out_names.insert(spec.out_names.end(), left.begin(), left.end());
  spec.out_names.insert(spec.out_names.end(), right.begin(), right.end());
  std::vector<ColumnRef> sorted = spec.out_names;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::Unimplemented("join with overlapping aliases");
  }
  for (const auto& cond : predicate.conditions()) {
    int li = ColumnIndexIn(left, cond.left);
    int ri = ColumnIndexIn(right, cond.right);
    if (li < 0 || ri < 0) {
      li = ColumnIndexIn(left, cond.right);
      ri = ColumnIndexIn(right, cond.left);
    }
    if (li < 0 || ri < 0) {
      return Status::Internal("join condition unresolvable: " + cond.ToString());
    }
    spec.conds.push_back({li, ri});
  }
  return spec;
}

JoinHashTable JoinHashTable::Build(ColumnBatch build,
                                   std::vector<int> key_cols,
                                   const PipelineOptions& options) {
  JoinHashTable table;
  table.build_ = std::move(build);
  table.key_cols_ = std::move(key_cols);
  const size_t num_rows = table.build_.num_rows;
  const int threads = options.num_threads;
  const size_t num_keys = table.key_cols_.size();

  // FOR-encoded key columns decode once, while hashing, into the table's
  // own copy; plain columns compare in place.
  table.decoded_keys_.resize(num_keys);
  std::vector<int64_t*> decoded(num_keys, nullptr);
  for (size_t c = 0; c < num_keys; ++c) {
    if (table.build_.columns[table.key_cols_[c]].for_encoded()) {
      table.decoded_keys_[c].resize(num_rows);
      decoded[c] = table.decoded_keys_[c].data();
    }
  }

  // Phase 1: per-row key hashes, morsel-parallel (each worker owns its
  // morsel's slots of the shared arrays).
  std::vector<uint64_t> hashes(num_rows);
  ParallelOverMorsels(
      MakeMorsels(num_rows,
                  ResolveMorselRows(num_rows, threads, options.morsel_rows)),
      threads,
      [&](size_t, const Morsel& morsel) {
        std::vector<int64_t*> dst(num_keys, nullptr);
        for (size_t c = 0; c < num_keys; ++c) {
          if (decoded[c] != nullptr) dst[c] = decoded[c] + morsel.begin;
        }
        HashKeyRange(table.build_, table.key_cols_, morsel.begin, morsel.end,
                     dst.data(), hashes.data() + morsel.begin);
      });

  // Publish the Bloom filter (sideways information passing): probe-side
  // pipelines can reject rows whose key hash is absent before the probe op
  // runs. For a single numeric key, also publish the key range so probes
  // can skip whole morsels on a zone min/max check.
  if (num_keys > 0) {
    auto bloom = JoinBloomFilter::Build(hashes);
    if (num_keys == 1) {
      const ColumnVector& key = table.build_.columns[table.key_cols_[0]];
      if (key.is_numeric() && num_rows > 0) {
        double lo = 0.0;
        double hi = 0.0;
        NumericMinMax(key, 0, static_cast<uint32_t>(num_rows), &lo, &hi);
        bloom->SetRange(lo, hi);
      }
    }
    table.bloom_ = std::move(bloom);
  }

  // Phase 2: CSR bucket table — histogram, prefix sum, scatter. Workers own
  // disjoint bucket ranges (the top bits of the bucket index) and scan the
  // hash array in row order, so every bucket's entries are ascending and
  // the table is identical for every thread count. One range per worker:
  // each extra range costs another scan of the hash array.
  const size_t buckets = NextPow2(std::max<size_t>(num_rows, 1));
  table.bucket_mask_ = buckets - 1;
  const size_t parts = std::min(
      buckets,
      threads > 1 ? NextPow2(std::min<size_t>(static_cast<size_t>(threads), 64))
                  : size_t{1});
  int shift = 0;
  while ((parts << shift) < buckets) ++shift;
  const uint64_t mask = table.bucket_mask_;
  // offsets[b + 1] counts bucket b; after the prefix sum offsets[b] is the
  // start of bucket b. The scatter advances offsets[b] to the end of bucket
  // b, and a one-slot shift restores the starts.
  std::vector<uint32_t>& offsets = table.offsets_;
  offsets.assign(buckets + 1, 0);
  ParallelFor(parts, threads, [&](size_t p) {
    for (size_t r = 0; r < num_rows; ++r) {
      const uint64_t b = hashes[r] & mask;
      if ((b >> shift) == p) ++offsets[b + 1];
    }
  });
  for (size_t b = 1; b <= buckets; ++b) offsets[b] += offsets[b - 1];
  table.rows_.resize(num_rows);
  table.hashes_.resize(num_rows);
  ParallelFor(parts, threads, [&](size_t p) {
    for (size_t r = 0; r < num_rows; ++r) {
      const uint64_t b = hashes[r] & mask;
      if ((b >> shift) != p) continue;
      const uint32_t k = offsets[b]++;
      table.rows_[k] = static_cast<uint32_t>(r);
      table.hashes_[k] = hashes[r];
    }
  });
  std::memmove(offsets.data() + 1, offsets.data(),
               (buckets - 1) * sizeof(uint32_t));
  offsets[0] = 0;
  return table;
}

size_t JoinHashTable::TableBytes() const {
  size_t bytes = offsets_.size() * sizeof(uint32_t) +
                 rows_.size() * sizeof(uint32_t) +
                 hashes_.size() * sizeof(uint64_t);
  for (const auto& keys : decoded_keys_) bytes += keys.size() * sizeof(int64_t);
  return bytes;
}

JoinHashTable::PreparedProbe JoinHashTable::Prepare(
    const ColumnBatch& probe, const std::vector<int>& probe_keys) const {
  PreparedProbe prepared;
  prepared.keys.resize(probe_keys.size());
  for (size_t c = 0; c < probe_keys.size(); ++c) {
    const ColumnVector& pcol = probe.columns[probe_keys[c]];
    const ColumnVector& bcol = build_.columns[key_cols_[c]];
    if (!pcol.dict_encoded() || !bcol.dict_encoded()) {
      continue;  // kGeneric
    }
    ++prepared.dict_keys;
    if (pcol.dict() == bcol.dict()) {
      prepared.keys[c].mode = PreparedProbe::Mode::kSameDict;
      continue;
    }
    // Different dictionaries: fetch or build the probe→build code remap.
    std::shared_ptr<const std::vector<int32_t>> remap;
    const auto cache_key = std::make_pair(c, pcol.dict());
    {
      std::lock_guard<std::mutex> lock(remap_->mu);
      auto it = remap_->cache.find(cache_key);
      if (it != remap_->cache.end()) remap = it->second;
    }
    if (remap == nullptr) {
      const auto& pe = pcol.dict()->entries;
      const auto& be = bcol.dict()->entries;
      auto built = std::make_shared<std::vector<int32_t>>(pe.size(), -1);
      // Two-pointer merge: both dictionaries are sorted-unique.
      size_t b = 0;
      for (size_t p = 0; p < pe.size(); ++p) {
        while (b < be.size() && be[b] < pe[p]) ++b;
        if (b < be.size() && be[b] == pe[p]) {
          (*built)[p] = static_cast<int32_t>(b);
        }
      }
      remap_->builds.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(remap_->mu);
      auto inserted = remap_->cache.emplace(cache_key, std::move(built));
      remap = inserted.first->second;  // A racing builder wins consistently.
    }
    prepared.keys[c].mode = PreparedProbe::Mode::kRemap;
    prepared.keys[c].remap = remap.get();
    prepared.pinned.push_back(std::move(remap));
  }
  return prepared;
}

void JoinHashTable::ProbeRange(const PreparedProbe& prepared,
                               const ColumnBatch& probe,
                               const std::vector<int>& probe_keys,
                               uint32_t begin, uint32_t end, SelVector* left,
                               SelVector* right) const {
  // Rows per pass: the block's hashes and decoded keys stay cache-resident
  // between the hashing pass and the bucket walk.
  constexpr uint32_t kBlockRows = 2048;
  const size_t num_keys = probe_keys.size();
  const uint32_t block = std::min(kBlockRows, end - begin);

  // Build-side key views (begin = 0, so indexed by build row): FOR-encoded
  // keys read the table's decoded copy, every other column is viewed in
  // place by the same loader the probe side uses.
  std::vector<KeySpan> build_spans(num_keys);
  std::vector<std::vector<int64_t>> probe_decoded(num_keys);
  std::vector<int64_t*> decoded(num_keys, nullptr);
  std::vector<std::vector<int32_t>> probe_codes(num_keys);
  for (size_t c = 0; c < num_keys; ++c) {
    const ColumnVector& bcol = build_.columns[key_cols_[c]];
    if (bcol.for_encoded()) {
      build_spans[c].kind = KeySpan::Kind::kInt;
      build_spans[c].ints = decoded_keys_[c].data();
      build_spans[c].col = &bcol;
    } else {
      build_spans[c] = LoadKeySpan(bcol, 0, 0, nullptr);
    }
    if (probe.columns[probe_keys[c]].for_encoded()) {
      probe_decoded[c].resize(block);
      decoded[c] = probe_decoded[c].data();
    }
    if (prepared.keys[c].mode == PreparedProbe::Mode::kRemap) {
      probe_codes[c].resize(block);
    }
  }

  std::vector<uint64_t> hashes(block);
  std::vector<KeySpan> spans(num_keys);
  std::vector<const int32_t*> want_codes(num_keys, nullptr);
  SelVector live(block);
  for (uint32_t b0 = begin; b0 < end; b0 += block) {
    const uint32_t n = std::min(block, end - b0);
    // Pass 1: hash the block column by column, then resolve dictionary keys
    // to build codes; a probe value absent from the build dictionary
    // rejects its row before any bucket is touched.
    HashKeyRange(probe, probe_keys, b0, b0 + n, decoded.data(), hashes.data(),
                 spans.data());
    uint32_t num_live = n;
    for (uint32_t j = 0; j < n; ++j) live[j] = j;
    for (size_t c = 0; c < num_keys; ++c) {
      switch (prepared.keys[c].mode) {
        case PreparedProbe::Mode::kGeneric:
          break;
        case PreparedProbe::Mode::kSameDict:
          want_codes[c] = spans[c].codes;
          break;
        case PreparedProbe::Mode::kRemap: {
          const int32_t* remap = prepared.keys[c].remap->data();
          int32_t* out = probe_codes[c].data();
          uint32_t k = 0;
          for (uint32_t i = 0; i < num_live; ++i) {
            const uint32_t j = live[i];
            const int32_t code = remap[spans[c].codes[j]];
            out[j] = code;
            live[k] = j;
            k += code >= 0 ? 1 : 0;
          }
          num_live = k;
          want_codes[c] = out;
          break;
        }
      }
    }

    // Pass 2: walk each live row's bucket; the full hash rejects foreign
    // entries, typed compares confirm the rest.
    for (uint32_t i = 0; i < num_live; ++i) {
      const uint32_t j = live[i];
      const uint64_t h = hashes[j];
      const uint64_t bucket = h & bucket_mask_;
      for (uint32_t k = offsets_[bucket], ke = offsets_[bucket + 1]; k < ke;
           ++k) {
        if (hashes_[k] != h) continue;
        const uint32_t r = rows_[k];
        bool match = true;
        for (size_t c = 0; c < num_keys && match; ++c) {
          const KeySpan& bs = build_spans[c];
          const KeySpan& ps = spans[c];
          if (want_codes[c] != nullptr) {
            match = want_codes[c][j] == bs.codes[r];
          } else if (bs.kind == KeySpan::Kind::kInt ||
                     bs.kind == KeySpan::Kind::kDouble) {
            const double bv = bs.kind == KeySpan::Kind::kInt
                                  ? static_cast<double>(bs.ints[r])
                                  : bs.doubles[r];
            if (ps.kind == KeySpan::Kind::kInt) {
              match = static_cast<double>(ps.ints[j]) == bv;
            } else if (ps.kind == KeySpan::Kind::kDouble) {
              match = ps.doubles[j] == bv;
            } else {
              match = false;  // A string never equals a number.
            }
          } else {
            match = ColumnVector::CellsEqual(*ps.col, b0 + j, *bs.col, r);
          }
        }
        if (match) {
          left->push_back(b0 + j);
          right->push_back(r);
        }
      }
    }
  }
}

}  // namespace mqo
