#include "sketch/count_sketch.h"

#include <algorithm>
#include <array>
#include <cstdlib>

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

// Strength order for candidate maintenance: larger |estimate| first, item
// id as the total-order tiebreak so pruning is deterministic regardless of
// hash-map iteration order.
inline bool Stronger(const std::pair<int64_t, ItemId>& a,
                     const std::pair<int64_t, ItemId>& b) {
  if (a.first != b.first) return a.first > b.first;
  return a.second < b.second;
}

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
  uint64_t fp = 0xcbf29ce484222325ULL;
  for (size_t j = 0; j < options.rows; ++j) {
    for (uint64_t probe : {uint64_t{1}, uint64_t{0x9e3779b9}}) {
      const uint64_t h = hash_bank_.EvalRow(j, ReduceToField(probe));
      fp = (fp ^ FastRange61(h, options.buckets)) * 0x100000001b3ULL;
      fp = (fp ^ (h & 1)) * 0x100000001b3ULL;
    }
  }
  hash_fingerprint_ = fp;
}

void CountSketch::MergeFrom(const CountSketch& other) {
  GSTREAM_CHECK_EQ(options_.rows, other.options_.rows);
  GSTREAM_CHECK_EQ(options_.buckets, other.options_.buckets);
  GSTREAM_CHECK_EQ(hash_fingerprint_, other.hash_fingerprint_);
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
}

void CountSketch::Update(ItemId item, int64_t delta) {
  uint64_t xm, x2, x3;
  FieldPowers3Lazy(item, &xm, &x2, &x3);
  const size_t b = options_.buckets;
  for (size_t j = 0; j < options_.rows; ++j) {
    const uint64_t h = RowHash(j, xm, x2, x3);
    const int64_t signed_delta = (h & 1) ? delta : -delta;
    counters_[j * b + FastRange61(h, b)] += signed_delta;
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

int64_t CountSketch::Estimate(ItemId item) const {
  uint64_t xm, x2, x3;
  FieldPowers3Lazy(item, &xm, &x2, &x3);
  const size_t b = options_.buckets;
  for (size_t j = 0; j < options_.rows; ++j) {
    const uint64_t h = RowHash(j, xm, x2, x3);
    const int64_t c = counters_[j * b + FastRange61(h, b)];
    row_scratch_[j] = (h & 1) ? c : -c;
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
  if (est_scratch_.size() < rows * simd::kSimdBlock) {
    est_scratch_.resize(rows * simd::kSimdBlock);
  }
  int64_t* vals = est_scratch_.data();
  // Unit deltas turn eval4_bucket's signed-delta output into the row sign
  // itself, so the gather applies the sign with one multiply.
  static constexpr std::array<int64_t, simd::kSimdBlock> kOnes = [] {
    std::array<int64_t, simd::kSimdBlock> ones{};
    for (int64_t& v : ones) v = 1;
    return ones;
  }();
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
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < rows; ++j) {
        row_scratch_[j] = vals[j * simd::kSimdBlock + i];
      }
      out[base + i] = MedianInPlace(row_scratch_);
    }
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

CountSketchTopK::CountSketchTopK(const CountSketchOptions& options, size_t k,
                                 Rng& rng)
    : sketch_(options, rng), k_(k) {
  GSTREAM_CHECK_GE(k, 1u);
  candidates_.reserve(2 * k + 1);
  prune_scratch_.reserve(2 * k + 1);
}

void CountSketchTopK::Update(ItemId item, int64_t delta) {
  sketch_.Update(item, delta);
  Refresh(item);
}

void CountSketchTopK::UpdateBatch(const gstream::Update* updates, size_t n) {
  sketch_.UpdateBatch(updates, n);
  // Refresh each distinct touched item once against the post-batch
  // counters; estimates only get sharper than the mid-batch values the
  // sequential loop would have seen.
  touched_scratch_.clear();
  for (size_t i = 0; i < n; ++i) touched_scratch_.push_back(updates[i].item);
  std::sort(touched_scratch_.begin(), touched_scratch_.end());
  touched_scratch_.erase(
      std::unique(touched_scratch_.begin(), touched_scratch_.end()),
      touched_scratch_.end());
  // One batched decode for all touched items (the estimates depend only on
  // the post-batch counters, so precomputing them preserves the exact
  // insert-then-maybe-prune evolution of per-item Refresh calls).
  estimate_scratch_.resize(touched_scratch_.size());
  sketch_.EstimateAllInto(touched_scratch_.data(), touched_scratch_.size(),
                          estimate_scratch_.data());
  for (size_t i = 0; i < touched_scratch_.size(); ++i) {
    candidates_[touched_scratch_[i]] = estimate_scratch_[i];
    if (candidates_.size() > 2 * k_) Prune();
  }
}

void CountSketchTopK::MergeFrom(const CountSketchTopK& other) {
  GSTREAM_CHECK_EQ(k_, other.k_);
  // Sum the linear counter arrays first (geometry- and fingerprint-
  // guarded); after this the inner sketch holds whole-stream counters.
  sketch_.MergeFrom(other.sketch_);
  // Union of the two candidate sets, deterministic order.
  touched_scratch_.clear();
  touched_scratch_.reserve(candidates_.size() + other.candidates_.size());
  for (const auto& [item, est] : candidates_) touched_scratch_.push_back(item);
  for (const auto& [item, est] : other.candidates_) {
    touched_scratch_.push_back(item);
  }
  std::sort(touched_scratch_.begin(), touched_scratch_.end());
  touched_scratch_.erase(
      std::unique(touched_scratch_.begin(), touched_scratch_.end()),
      touched_scratch_.end());
  // Re-estimate every union member against the merged counters.  Stale
  // per-shard estimates (computed against a shard's partial counters) are
  // discarded wholesale: only whole-stream estimates may decide pruning.
  estimate_scratch_.resize(touched_scratch_.size());
  sketch_.EstimateAllInto(touched_scratch_.data(), touched_scratch_.size(),
                          estimate_scratch_.data());
  candidates_.clear();
  for (size_t i = 0; i < touched_scratch_.size(); ++i) {
    candidates_[touched_scratch_[i]] = estimate_scratch_[i];
  }
  // Re-prune to the k strongest (|estimate| desc, item id tiebreak) -- the
  // same selection TopK() reports, so the retained set is exactly the top-k
  // of the candidate union under merged estimates.
  if (candidates_.size() > k_) Prune();
}

void CountSketchTopK::Refresh(ItemId item) {
  candidates_[item] = sketch_.Estimate(item);
  if (candidates_.size() <= 2 * k_) return;
  Prune();
}

void CountSketchTopK::Prune() {
  // Amortized maintenance: let the set fill the [k, 2k] hysteresis band,
  // then one O(k) selection keeps the k strongest.  Each prune removes ~k
  // entries, so the per-update cost is O(1) amortized.
  prune_scratch_.clear();
  for (const auto& [item, est] : candidates_) {
    prune_scratch_.emplace_back(std::llabs(est), item);
  }
  auto kth = prune_scratch_.begin() + static_cast<ptrdiff_t>(k_ - 1);
  std::nth_element(prune_scratch_.begin(), kth, prune_scratch_.end(),
                   Stronger);
  const std::pair<int64_t, ItemId> cutoff = *kth;
  for (auto it = candidates_.begin(); it != candidates_.end();) {
    if (Stronger(cutoff, {std::llabs(it->second), it->first})) {
      it = candidates_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<std::pair<ItemId, int64_t>> CountSketchTopK::TopK() const {
  std::vector<std::pair<ItemId, int64_t>> out(candidates_.begin(),
                                              candidates_.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    const int64_t aa = std::llabs(a.second);
    const int64_t bb = std::llabs(b.second);
    if (aa != bb) return aa > bb;
    return a.first < b.first;
  });
  if (out.size() > k_) out.resize(k_);
  return out;
}

std::vector<ItemId> CountSketchTopK::CandidateItems() const {
  std::vector<ItemId> items;
  items.reserve(candidates_.size());
  for (const auto& [item, est] : candidates_) items.push_back(item);
  std::sort(items.begin(), items.end());
  return items;
}

size_t CountSketchTopK::SpaceBytes() const {
  return sketch_.SpaceBytes() +
         candidates_.size() * (sizeof(ItemId) + sizeof(int64_t));
}

}  // namespace gstream
