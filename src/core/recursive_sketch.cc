#include "core/recursive_sketch.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <utility>

#include "util/logging.h"

namespace gstream {

RecursiveGSum::RecursiveGSum(int levels, const GHeavyHitterFactory& factory,
                             Rng& rng)
    : subsampler_(levels, rng) {
  GSTREAM_CHECK_GE(levels, 0);
  sketches_.reserve(static_cast<size_t>(levels) + 1);
  for (int l = 0; l <= levels; ++l) {
    sketches_.push_back(factory(l, rng));
    GSTREAM_CHECK(sketches_.back() != nullptr);
    GSTREAM_CHECK_EQ(sketches_.back()->passes(), sketches_.front()->passes());
  }
  level_batches_.resize(static_cast<size_t>(levels) + 1);
  // Reserve the partition buffers once, at the ForEachBatch chunk size, so
  // steady-state UpdateBatch never grows them (the AppendStream-style
  // pre-sizing discipline of Stream::Reserve).  Level 0 receives every
  // update of a chunk; deeper levels receive subsets, but any level can
  // receive a full chunk in the worst case, so all get full capacity.
  for (auto& batch : level_batches_) batch.reserve(kStreamBatchSize);
}

RecursiveGSum::RecursiveGSum(ReplicateTag, const RecursiveGSum& other)
    : subsampler_(other.subsampler_) {
  sketches_.reserve(other.sketches_.size());
  for (const auto& sketch : other.sketches_) {
    sketches_.push_back(sketch->Clone());
  }
  level_batches_.resize(other.level_batches_.size());
  for (auto& batch : level_batches_) batch.reserve(kStreamBatchSize);
}

RecursiveGSum RecursiveGSum::Replicate() const {
  return RecursiveGSum(ReplicateTag{}, *this);
}

void RecursiveGSum::MergeFrom(const RecursiveGSum& other) {
  GSTREAM_CHECK_EQ(levels(), other.levels());
  GSTREAM_CHECK_EQ(subsampler_.Fingerprint(), other.subsampler_.Fingerprint());
  for (size_t l = 0; l < sketches_.size(); ++l) {
    // Each level sketch checks its own type and hash fingerprint.
    sketches_[l]->MergeFrom(*other.sketches_[l]);
  }
}

uint64_t RecursiveGSum::Fingerprint() const {
  uint64_t fp = subsampler_.Fingerprint();
  for (const auto& sketch : sketches_) {
    fp = FnvFold(fp, sketch->Fingerprint());
  }
  return fp;
}

void RecursiveGSum::Update(ItemId item, int64_t delta) {
  const int deepest = subsampler_.LevelOf(item);
  for (int l = 0; l <= std::min(deepest, levels()); ++l) {
    sketches_[static_cast<size_t>(l)]->Update(item, delta);
  }
}

void RecursiveGSum::UpdateBatch(const gstream::Update* updates, size_t n) {
  if (n == 0) return;
  // Coalesce once for the whole stack: routing is per item, so every
  // level's sub-batch comes out coalesced (and ascending) too, and each
  // level sketch sees each distinct item once.
  const std::span<const gstream::Update> chunk =
      CoalesceChunk(updates, n, &chunk_.buf);
  updates = chunk.data();
  n = chunk.size();
  const int max_level = levels();
  for (auto& batch : level_batches_) {
    batch.clear();  // capacity retained
    // Oversized feeds (raw callers bypassing ForEachBatch framing) grow
    // the buffer once here, before the fill, so the partition loop below
    // never reallocates mid-chunk.
    if (batch.capacity() < n) batch.reserve(n);
  }
  const gstream::Update* const base0 = level_batches_[0].data();
  for (size_t i = 0; i < n; ++i) {
    const int deepest =
        std::min(subsampler_.LevelOf(updates[i].item), max_level);
    for (int l = 0; l <= deepest; ++l) {
      level_batches_[static_cast<size_t>(l)].push_back(updates[i]);
    }
  }
  // Steady-state reuse invariant: capacity was ensured up front, so the
  // fill must not have moved the buffers (checked on level 0, the one that
  // takes the full chunk every time).
  GSTREAM_CHECK(level_batches_[0].data() == base0);
  for (int l = 0; l <= max_level; ++l) {
    const auto& batch = level_batches_[static_cast<size_t>(l)];
    if (batch.empty()) continue;
    sketches_[static_cast<size_t>(l)]->UpdateBatch(batch.data(),
                                                   batch.size());
  }
}

void RecursiveGSum::AdvancePass() {
  for (auto& sketch : sketches_) sketch->AdvancePass();
}

double RecursiveGSum::Estimate(const GFunction& g) const {
  const int max_level = levels();
  // Materialize the covers once; keep per-level weight maps for the exact
  // cancellation of heavy items against the deeper level's estimate.
  std::vector<std::unordered_map<ItemId, double>> weights(
      static_cast<size_t>(max_level) + 1);
  for (int l = 0; l <= max_level; ++l) {
    for (const GCoverEntry& entry :
         sketches_[static_cast<size_t>(l)]->Cover(g)) {
      const double w =
          entry.has_frequency ? g.ValueAbs(entry.frequency) : entry.g_value;
      weights[static_cast<size_t>(l)].emplace(entry.item, w);
    }
  }
  double x = 0.0;
  for (const auto& [item, w] : weights[static_cast<size_t>(max_level)]) {
    x += w;
  }
  for (int l = max_level - 1; l >= 0; --l) {
    const auto& level_weights = weights[static_cast<size_t>(l)];
    const auto& deeper_weights = weights[static_cast<size_t>(l) + 1];
    double own = 0.0;
    double overlap = 0.0;
    for (const auto& [item, w] : level_weights) {
      own += w;
      if (subsampler_.InLevel(item, l + 1)) {
        // Use the deeper level's weight when it reported one so the
        // subtraction cancels its contribution to x exactly.
        const auto it = deeper_weights.find(item);
        overlap += (it != deeper_weights.end()) ? it->second : w;
      }
    }
    x = own + 2.0 * (x - overlap);
  }
  return std::max(0.0, x);
}

size_t RecursiveGSum::SpaceBytes() const {
  size_t bytes = subsampler_.SpaceBytes();
  for (const auto& sketch : sketches_) bytes += sketch->SpaceBytes();
  return bytes;
}

}  // namespace gstream
