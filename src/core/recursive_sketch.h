// The Braverman-Ostrovsky recursive sketch (paper Theorem 13): reduces
// (g, eps)-SUM to (g, lambda, eps, delta)-heavy hitters with an O(log n)
// space overhead.
//
// Structure: items are nested-subsampled into levels S_0 superset S_1
// superset ... superset S_L (each level halving, pairwise independent); an
// independent heavy-hitter sketch runs on each level's substream.  With
// cover C_l at level l and weights w, the estimate is computed bottom-up:
//
//     X_L = sum_{i in C_L} w_i
//     X_l = sum_{i in C_l} w_i + 2 * ( X_{l+1} - sum_{i in C_l ∩ S_{l+1}} w_i )
//
// Each level accounts its heavy hitters exactly and estimates the light
// mass by twice the next level's estimate of it (subtracting the heavy
// items it already counted, using the deeper level's weight when available
// so the cancellation is exact).  E[X_0] = g-SUM when covers are faithful;
// the heaviness parameter lambda = eps^2 / log^3 n controls the variance
// (Theorem 13).  The recursion depth is chosen so the deepest level holds
// few enough items for its sketch to cover completely.
//
// The stack is itself a mergeable unit: two stacks built from equal-state
// Rngs share the subsampler coefficients AND every level sketch's hashes,
// so their level partitions agree item-for-item and merging is just the
// per-level GHeavyHitterSketch::MergeFrom, fingerprint-guarded end to end.
// Replicate() deep-copies a stack (Clone per level) so the sharded
// ingestion engine can fan one stack -- fresh, or frozen between passes --
// across N shards that each run the entire recursion on their partition
// and fold at close.

#ifndef GSTREAM_CORE_RECURSIVE_SKETCH_H_
#define GSTREAM_CORE_RECURSIVE_SKETCH_H_

#include <memory>
#include <vector>

#include "core/heavy_hitters.h"
#include "sketch/subsampler.h"
#include "util/scratch.h"

namespace gstream {

namespace persist {
struct SketchSerde;  // durable wire format (persist/sketch_io.h)
}  // namespace persist

class RecursiveGSum {
 public:
  // `levels` = L >= 0; the factory is invoked once per level 0..L.
  RecursiveGSum(int levels, const GHeavyHitterFactory& factory, Rng& rng);

  RecursiveGSum(RecursiveGSum&&) = default;
  RecursiveGSum& operator=(RecursiveGSum&&) = default;

  // Passes required (that of the per-level sketches).
  int passes() const { return sketches_.front()->passes(); }

  // Routes the update to every level whose sample contains the item.
  void Update(ItemId item, int64_t delta);

  // Batched routing: coalesces the chunk once (CoalesceChunk), classifies
  // each distinct item once, partitions the chunk into reusable per-level
  // buffers, and forwards each level's sub-batch through the level
  // sketch's UpdateBatch.  Counter state matches the sequential loop
  // exactly (linearity).
  void UpdateBatch(const gstream::Update* updates, size_t n);

  // Transitions every level sketch to its next pass.
  void AdvancePass();

  // The recursive estimate of sum_i g(|v_i|).  Clamped below at 0.
  double Estimate(const GFunction& g) const;

  // Structural deep copy: same subsampler coefficients, every level sketch
  // Clone()d with its current state.  Replicating a fresh (or frozen
  // between-passes) stack across engine shards and folding the replicas
  // with MergeFrom at close reproduces the sequential stack -- the
  // whole-stack replicate -> ingest -> merge pattern ShardedIngestor
  // drives.  Replicating a mid-pass stack and merging would double-count
  // its state, exactly as for ReplicateFactory prototypes.
  RecursiveGSum Replicate() const;

  // Folds a same-seed replica that processed a disjoint shard of the
  // current pass's stream into this stack: per-level sketch merges under a
  // subsampler-fingerprint guard (identical level partitions are what make
  // "level l of shard A" and "level l of shard B" the same substream).
  void MergeFrom(const RecursiveGSum& other);

  // Merge-guard fingerprint: subsampler coefficients folded with every
  // level sketch's fingerprint.
  uint64_t Fingerprint() const;

  size_t SpaceBytes() const;

  int levels() const { return static_cast<int>(sketches_.size()) - 1; }

  // The level-l sketch (l in [0, levels()]), exposed so the engine
  // equivalence tests can pin merged per-level state bit-exactly against a
  // sequential pass.
  const GHeavyHitterSketch& level_sketch(int l) const {
    return *sketches_[static_cast<size_t>(l)];
  }

 private:
  friend struct persist::SketchSerde;

  struct ReplicateTag {};
  RecursiveGSum(ReplicateTag, const RecursiveGSum& other);

  NestedSubsampler subsampler_;
  std::vector<std::unique_ptr<GHeavyHitterSketch>> sketches_;  // per level
  // Reusable per-level partition buffers for UpdateBatch (level l holds the
  // chunk's updates whose item survives to level l).  Reserved once at
  // construction from the stream chunk size; UpdateBatch asserts they are
  // reused, never reallocated, in steady state.
  std::vector<std::vector<gstream::Update>> level_batches_;
  Scratch<gstream::Update> chunk_;  // UpdateBatch's coalesced chunk
};

}  // namespace gstream

#endif  // GSTREAM_CORE_RECURSIVE_SKETCH_H_
