#include "sketch/count_sketch.h"

#include <algorithm>
#include <array>
#include <bit>
#include <span>

#include "util/bit.h"
#include "util/logging.h"
#include "util/simd/simd_dispatch.h"

namespace gstream {
namespace {

// Median of a small scratch vector (destroys order).
template <typename T>
T MedianInPlace(std::vector<T>& v) {
  GSTREAM_CHECK(!v.empty());
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

// |v| as uint64_t, defined for every int64 (|INT64_MIN| is 2^63).
inline uint64_t Magnitude(int64_t v) {
  return v < 0 ? 0 - static_cast<uint64_t>(v) : static_cast<uint64_t>(v);
}

// Strength order for candidate maintenance: larger |estimate| first, item
// id as the total-order tiebreak so pruning is deterministic regardless of
// the candidates' storage order.  Counters wrap, so an estimate may be
// INT64_MIN; it is the strongest.
inline bool Stronger(const CandidateTable::Entry& a,
                     const CandidateTable::Entry& b) {
  const uint64_t aa = Magnitude(a.estimate);
  const uint64_t bb = Magnitude(b.estimate);
  if (aa != bb) return aa > bb;
  return a.item < b.item;
}

// Keeps the k strongest of `entries` (under Stronger, a total order).
void KeepStrongest(std::vector<CandidateTable::Entry>* entries, size_t k) {
  if (entries->size() <= k) return;
  std::nth_element(entries->begin(),
                   entries->begin() + static_cast<ptrdiff_t>(k - 1),
                   entries->end(), Stronger);
  entries->resize(k);
}

// Unit deltas turn eval4_bucket's signed-delta output into the row sign
// itself, so a gather applies the sign with one multiply.
constexpr std::array<int64_t, simd::kSimdBlock> kOnes = [] {
  std::array<int64_t, simd::kSimdBlock> ones{};
  for (int64_t& v : ones) v = 1;
  return ones;
}();

}  // namespace

CountSketch::CountSketch(const CountSketchOptions& options, Rng& rng)
    : options_(options),
      hash_bank_(/*k=*/4, std::max<size_t>(options.rows, 1), rng) {
  GSTREAM_CHECK_GE(options.rows, 1u);
  GSTREAM_CHECK_GE(options.buckets, 1u);
  // The SIMD fastrange kernel assembles h * range from 32-bit partial
  // products, so the bucket range must fit in 32 bits.
  GSTREAM_CHECK_LT(options.buckets, uint64_t{1} << 32);
  counters_.assign(options.rows * options.buckets, 0);
  GSTREAM_DCHECK(IsCacheLineAligned(counters_.data()));
  row_scratch_.resize(options.rows);
  f2_scratch_.resize(options.rows);
  // Fingerprint the drawn hash functions by probing them; two sketches
  // share hashes iff they were constructed from equal-state Rngs.
  uint64_t fp = kFnvOffsetBasis;
  for (size_t j = 0; j < options.rows; ++j) {
    for (uint64_t probe : {uint64_t{1}, uint64_t{0x9e3779b9}}) {
      const uint64_t h = hash_bank_.EvalRow(j, ReduceToField(probe));
      fp = FnvFold(FnvFold(fp, FastRange61(h, options.buckets)), h & 1);
    }
  }
  hash_fingerprint_ = fp;
}

void CountSketch::MergeFrom(const CountSketch& other) {
  GSTREAM_CHECK_EQ(options_.rows, other.options_.rows);
  GSTREAM_CHECK_EQ(options_.buckets, other.options_.buckets);
  GSTREAM_CHECK_EQ(hash_fingerprint_, other.hash_fingerprint_);
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] = WrapAdd(counters_[i], other.counters_[i]);
  }
}

void CountSketch::Update(ItemId item, int64_t delta) {
  uint64_t xm, x2, x3;
  FieldPowers3Lazy(item, &xm, &x2, &x3);
  const size_t b = options_.buckets;
  for (size_t j = 0; j < options_.rows; ++j) {
    const uint64_t h = RowHash(j, xm, x2, x3);
    // Mod-2^64 arithmetic, as in the batched kernels and MergeFrom:
    // counters wrap at the int64 edge instead of overflowing.
    int64_t& counter = counters_[j * b + FastRange61(h, b)];
    counter = WrapAdd(counter, ApplyRowSign(h, delta));
  }
}

void CountSketch::UpdateBatch(const gstream::Update* updates, size_t n) {
  // Blocked three-pass kernel over the dispatched SIMD layer: per
  // L1-resident block, (1) deinterleave the chunk and precompute the
  // shared per-item field powers, then per row (2) evaluate the row's
  // 4-wise polynomial lane-parallel and reduce to buckets, and (3)
  // scatter the signed deltas into the row's counters.  All staging
  // lives in stack arrays (6 x 512 x 8 B), and every tier produces the
  // same canonical hashes, so the counters are bit-identical to the
  // sequential Update loop under any dispatch.
  const simd::SimdOps& ops = simd::Ops();
  const size_t b = options_.buckets;
  const size_t rows = options_.rows;
  const uint64_t* d0 = hash_bank_.DegreeCoeffs(0);
  const uint64_t* d1 = hash_bank_.DegreeCoeffs(1);
  const uint64_t* d2 = hash_bank_.DegreeCoeffs(2);
  const uint64_t* d3 = hash_bank_.DegreeCoeffs(3);
  alignas(64) uint64_t xm[simd::kSimdBlock];
  alignas(64) uint64_t x2[simd::kSimdBlock];
  alignas(64) uint64_t x3[simd::kSimdBlock];
  alignas(64) int64_t sd[simd::kSimdBlock];
  alignas(64) int64_t delta[simd::kSimdBlock];
  alignas(64) uint32_t idx[simd::kSimdBlock];
  for (size_t base = 0; base < n; base += simd::kSimdBlock) {
    const size_t m = std::min(simd::kSimdBlock, n - base);
    ops.prepare_batch(updates + base, m, xm, x2, x3, delta);
    for (size_t j = 0; j < rows; ++j) {
      ops.eval4_bucket(d0[j], d1[j], d2[j], d3[j], xm, x2, x3, delta, b, m,
                       idx, sd);
      ops.scatter_add_signed(counters_.data() + j * b, idx, sd, m);
    }
  }
}

void CountSketch::UpdateBatchRecording(const gstream::Update* updates,
                                       size_t n, uint32_t* bucket,
                                       int64_t* sign) {
  // UpdateBatch's block structure, with the row hash evaluated against
  // unit deltas so eval4_bucket writes the bucket and the sign straight
  // into the caller's arrays; the signed deltas are formed from them (mod
  // 2^64, like the scatter) for the scatter.
  const simd::SimdOps& ops = simd::Ops();
  const size_t b = options_.buckets;
  const size_t rows = options_.rows;
  const uint64_t* d0 = hash_bank_.DegreeCoeffs(0);
  const uint64_t* d1 = hash_bank_.DegreeCoeffs(1);
  const uint64_t* d2 = hash_bank_.DegreeCoeffs(2);
  const uint64_t* d3 = hash_bank_.DegreeCoeffs(3);
  alignas(64) uint64_t xm[simd::kSimdBlock];
  alignas(64) uint64_t x2[simd::kSimdBlock];
  alignas(64) uint64_t x3[simd::kSimdBlock];
  alignas(64) int64_t sd[simd::kSimdBlock];
  alignas(64) int64_t delta[simd::kSimdBlock];
  for (size_t base = 0; base < n; base += simd::kSimdBlock) {
    const size_t m = std::min(simd::kSimdBlock, n - base);
    ops.prepare_batch(updates + base, m, xm, x2, x3, delta);
    for (size_t j = 0; j < rows; ++j) {
      uint32_t* idx = bucket + j * n + base;
      int64_t* s = sign + j * n + base;
      ops.eval4_bucket(d0[j], d1[j], d2[j], d3[j], xm, x2, x3, kOnes.data(),
                       b, m, idx, s);
      for (size_t i = 0; i < m; ++i) {
        sd[i] = static_cast<int64_t>(static_cast<uint64_t>(delta[i]) *
                                     static_cast<uint64_t>(s[i]));
      }
      ops.scatter_add_signed(counters_.data() + j * b, idx, sd, m);
    }
  }
}

void CountSketch::EstimateRecordedInto(const uint32_t* bucket,
                                       const int64_t* sign, size_t n,
                                       int64_t* out) const {
  const simd::SimdOps& ops = simd::Ops();
  const size_t b = options_.buckets;
  const size_t rows = options_.rows;
  std::vector<int64_t>& staging = est_scratch_.buf;
  if (staging.size() < rows * simd::kSimdBlock) {
    staging.resize(rows * simd::kSimdBlock);
  }
  int64_t* vals = staging.data();
  for (size_t base = 0; base < n; base += simd::kSimdBlock) {
    const size_t m = std::min(simd::kSimdBlock, n - base);
    for (size_t j = 0; j < rows; ++j) {
      ops.gather_signed(counters_.data() + j * b, bucket + j * n + base,
                        sign + j * n + base, m, vals + j * simd::kSimdBlock);
    }
    RowMediansInto(vals, m, out + base);
  }
}

void CountSketch::RowMediansInto(const int64_t* vals, size_t m,
                                 int64_t* out) const {
  // The middle order statistic, the value MedianInPlace's nth_element
  // selects.  Five rows take a branch-free network: f = max(min(a, b),
  // min(c, d)) and g = min(max(a, b), max(c, d)) are the middle pair of
  // {a, b, c, d} (in either order), and the median of five is the median
  // of e, f and g.
  const size_t rows = options_.rows;
  if (rows == 5) {
    constexpr size_t k = simd::kSimdBlock;
    for (size_t i = 0; i < m; ++i) {
      const int64_t a = vals[i], b = vals[k + i], c = vals[2 * k + i];
      const int64_t d = vals[3 * k + i], e = vals[4 * k + i];
      const int64_t f = std::max(std::min(a, b), std::min(c, d));
      const int64_t g = std::min(std::max(a, b), std::max(c, d));
      out[i] = std::max(std::min(e, f), std::min(std::max(e, f), g));
    }
    return;
  }
  // Other row counts: insertion sort per item, the rows being few.
  int64_t* sorted = row_scratch_.data();
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < rows; ++j) {
      const int64_t v = vals[j * simd::kSimdBlock + i];
      size_t p = j;
      for (; p > 0 && sorted[p - 1] > v; --p) sorted[p] = sorted[p - 1];
      sorted[p] = v;
    }
    out[i] = sorted[rows / 2];
  }
}

int64_t CountSketch::Estimate(ItemId item) const {
  uint64_t xm, x2, x3;
  FieldPowers3Lazy(item, &xm, &x2, &x3);
  const size_t b = options_.buckets;
  for (size_t j = 0; j < options_.rows; ++j) {
    const uint64_t h = RowHash(j, xm, x2, x3);
    row_scratch_[j] = ApplyRowSign(h, counters_[j * b + FastRange61(h, b)]);
  }
  return MedianInPlace(row_scratch_);
}

void CountSketch::EstimateAllInto(const ItemId* items, size_t n,
                                  int64_t* out) const {
  // Item-major batched decode: same block structure as UpdateBatch, but
  // gathering sign-adjusted counters into a rows x kSimdBlock staging
  // area, then taking each item's median across rows.  The staged values
  // are exactly the row_scratch_ contents Estimate builds per item, so
  // each output is bit-identical to Estimate(items[i]).
  const simd::SimdOps& ops = simd::Ops();
  const size_t b = options_.buckets;
  const size_t rows = options_.rows;
  const uint64_t* d0 = hash_bank_.DegreeCoeffs(0);
  const uint64_t* d1 = hash_bank_.DegreeCoeffs(1);
  const uint64_t* d2 = hash_bank_.DegreeCoeffs(2);
  const uint64_t* d3 = hash_bank_.DegreeCoeffs(3);
  std::vector<int64_t>& staging = est_scratch_.buf;
  if (staging.size() < rows * simd::kSimdBlock) {
    staging.resize(rows * simd::kSimdBlock);
  }
  int64_t* vals = staging.data();
  alignas(64) uint64_t xm[simd::kSimdBlock];
  alignas(64) uint64_t x2[simd::kSimdBlock];
  alignas(64) uint64_t x3[simd::kSimdBlock];
  alignas(64) int64_t sign[simd::kSimdBlock];
  alignas(64) uint32_t idx[simd::kSimdBlock];
  for (size_t base = 0; base < n; base += simd::kSimdBlock) {
    const size_t m = std::min(simd::kSimdBlock, n - base);
    ops.field_powers(items + base, m, xm, x2, x3);
    for (size_t j = 0; j < rows; ++j) {
      ops.eval4_bucket(d0[j], d1[j], d2[j], d3[j], xm, x2, x3, kOnes.data(),
                       b, m, idx, sign);
      ops.gather_signed(counters_.data() + j * b, idx, sign, m,
                        vals + j * simd::kSimdBlock);
    }
    RowMediansInto(vals, m, out + base);
  }
}

std::vector<int64_t> CountSketch::EstimateAll(
    const std::vector<ItemId>& items) const {
  std::vector<int64_t> estimates(items.size());
  EstimateAllInto(items.data(), items.size(), estimates.data());
  return estimates;
}

double CountSketch::EstimateF2() const {
  for (size_t j = 0; j < options_.rows; ++j) {
    double sum = 0.0;
    for (size_t b = 0; b < options_.buckets; ++b) {
      const double c =
          static_cast<double>(counters_[j * options_.buckets + b]);
      sum += c * c;
    }
    f2_scratch_[j] = sum;
  }
  return MedianInPlace(f2_scratch_);
}

size_t CountSketch::SpaceBytes() const {
  return counters_.size() * sizeof(int64_t) + hash_bank_.SpaceBytes() +
         sizeof(uint64_t) /* bucket range */;
}

CandidateTable::CandidateTable(size_t capacity)
    : capacity_(capacity),
      index_bits_(std::bit_width(2 * capacity - 1)) {}

size_t CandidateTable::HomeSlot(ItemId item) const {
  // Fibonacci hashing: the top index_bits_ bits of a multiplicative hash.
  return static_cast<size_t>((item * 0x9e3779b97f4a7c15ULL) >>
                             (64 - index_bits_));
}

void CandidateTable::BuildIndex() {
  index_.buf.assign(size_t{1} << index_bits_, 0);
  entries_.reserve(capacity_);
  const size_t mask = index_.buf.size() - 1;
  for (size_t pos = 0; pos < entries_.size(); ++pos) {
    size_t slot = HomeSlot(entries_[pos].item);
    while (index_.buf[slot] != 0) slot = (slot + 1) & mask;
    index_.buf[slot] = static_cast<uint32_t>(pos + 1);
  }
}

void CandidateTable::Upsert(ItemId item, int64_t estimate) {
  if (index_.buf.empty()) BuildIndex();
  const size_t mask = index_.buf.size() - 1;
  for (size_t slot = HomeSlot(item);; slot = (slot + 1) & mask) {
    const uint32_t pos = index_.buf[slot];
    if (pos == 0) {
      GSTREAM_CHECK_LT(entries_.size(), capacity_);
      entries_.push_back(Entry{item, estimate});
      index_.buf[slot] = static_cast<uint32_t>(entries_.size());
      return;
    }
    if (entries_[pos - 1].item == item) {
      entries_[pos - 1].estimate = estimate;
      return;
    }
  }
}

void CandidateTable::Assign(std::vector<Entry> entries) {
  GSTREAM_CHECK_LE(entries.size(), capacity_);
  entries_ = std::move(entries);
  index_.buf.clear();
}

void CandidateTable::KeepStrongest(size_t k) {
  gstream::KeepStrongest(&entries_, k);
  index_.buf.clear();
}

CountSketchTopK::CountSketchTopK(const CountSketchOptions& options, size_t k,
                                 Rng& rng)
    : sketch_(options, rng), k_(k), candidates_(2 * k + 1) {
  GSTREAM_CHECK_GE(k, 1u);
}

void CountSketchTopK::Update(ItemId item, int64_t delta) {
  sketch_.Update(item, delta);
  Refresh(item);
}

void CountSketchTopK::UpdateBatch(const gstream::Update* updates, size_t n) {
  const std::span<const gstream::Update> chunk =
      CoalesceChunk(updates, n, &chunk_.buf);
  const size_t m = chunk.size();
  const size_t cells = sketch_.rows() * m;
  if (buckets_.buf.size() < cells) {
    buckets_.buf.resize(cells);
    signs_.buf.resize(cells);
  }
  if (estimates_.buf.size() < m) estimates_.buf.resize(m);
  sketch_.UpdateBatchRecording(chunk.data(), m, buckets_.buf.data(),
                               signs_.buf.data());
  // Every touched item's estimate depends only on the post-chunk counters,
  // so gathering them all first preserves the exact insert-then-maybe-
  // prune evolution of per-item Refresh calls in ascending id order.
  sketch_.EstimateRecordedInto(buckets_.buf.data(), signs_.buf.data(), m,
                               estimates_.buf.data());
  for (size_t i = 0; i < m; ++i) {
    candidates_.Upsert(chunk[i].item, estimates_.buf[i]);
    if (candidates_.size() > 2 * k_) Prune();
  }
}

void CountSketchTopK::MergeFrom(const CountSketchTopK& other) {
  GSTREAM_CHECK_EQ(k_, other.k_);
  // Sum the linear counter arrays first (geometry- and fingerprint-
  // guarded); after this the inner sketch holds whole-stream counters.
  sketch_.MergeFrom(other.sketch_);
  // Union of the two candidate sets, deterministic order.
  std::vector<ItemId>& ids = union_.buf;
  ids.clear();
  for (const auto& e : candidates_.entries()) ids.push_back(e.item);
  for (const auto& e : other.candidates_.entries()) ids.push_back(e.item);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  // Re-estimate every union member against the merged counters.  Stale
  // per-shard estimates (computed against a shard's partial counters) are
  // discarded wholesale: only whole-stream estimates may decide pruning.
  std::vector<int64_t>& estimates = estimates_.buf;
  estimates.resize(ids.size());
  sketch_.EstimateAllInto(ids.data(), ids.size(), estimates.data());
  std::vector<CandidateTable::Entry> merged(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) merged[i] = {ids[i], estimates[i]};
  // Re-prune to the k strongest (|estimate| desc, item id tiebreak) -- the
  // same selection TopK() reports, so the retained set is exactly the top-k
  // of the candidate union under merged estimates.
  KeepStrongest(&merged, k_);
  candidates_.Assign(std::move(merged));
}

void CountSketchTopK::Refresh(ItemId item) {
  candidates_.Upsert(item, sketch_.Estimate(item));
  if (candidates_.size() <= 2 * k_) return;
  Prune();
}

void CountSketchTopK::Prune() {
  // Amortized maintenance: let the set fill the [k, 2k] hysteresis band,
  // then one O(k) selection keeps the k strongest.  Each prune removes ~k
  // entries, so the per-update cost is O(1) amortized.
  candidates_.KeepStrongest(k_);
}

std::vector<std::pair<ItemId, int64_t>> CountSketchTopK::TopK() const {
  std::vector<CandidateTable::Entry> sorted = candidates_.entries();
  std::sort(sorted.begin(), sorted.end(), Stronger);
  if (sorted.size() > k_) sorted.resize(k_);
  std::vector<std::pair<ItemId, int64_t>> out;
  out.reserve(sorted.size());
  for (const auto& e : sorted) out.emplace_back(e.item, e.estimate);
  return out;
}

std::vector<ItemId> CountSketchTopK::CandidateItems() const {
  std::vector<ItemId> items;
  items.reserve(candidates_.size());
  for (const auto& e : candidates_.entries()) items.push_back(e.item);
  std::sort(items.begin(), items.end());
  return items;
}

size_t CountSketchTopK::SpaceBytes() const {
  return sketch_.SpaceBytes() +
         candidates_.size() * (sizeof(ItemId) + sizeof(int64_t));
}

}  // namespace gstream
