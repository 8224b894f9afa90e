// Engine-fed heavy hitters end to end: the paper's one- and two-pass
// (g, lambda)-heavy-hitter algorithms (Algorithms 2 and 1) running their
// passes through the sharded ingestion engine, decoding identical covers
// to a sequential run.
//
// The scenario: a traffic-analytics pipeline wants the users whose
// g-weighted activity dominates the day (g = x^2 makes this "who drives
// the variance"), but one thread cannot keep up with the feed.
// ProcessStreamSharded fans every pass across same-seed replicas of the
// heavy hitter; at close the trackers merge by candidate union
// (re-estimated against the merged counters, re-pruned to k per pairwise
// merge -- see docs/engine.md), so every genuinely heavy user survives
// into the decode just as in a sequential pass.

#include <cinttypes>
#include <cstdio>
#include <unordered_set>

#include "core/one_pass_hh.h"
#include "core/two_pass_hh.h"
#include "engine/sharded_ingestor.h"
#include "gfunc/catalog.h"
#include "stream/exact.h"
#include "stream/generators.h"

int main() {
  using namespace gstream;

  // A day of Zipf-skewed per-user activity with churn (deletions), plus a
  // handful of users whose activity spikes and is then reversed --
  // mid-stream decoys the trackers must evict.
  const uint64_t users = uint64_t{1} << 16;
  Rng rng(0x4ea7);
  StreamShapeOptions shape;
  shape.churn_pairs = 2000;
  Workload w = MakeZipfWorkload(users, 20000, 1.2, 30000, shape, rng);
  for (ItemId decoy = 60000; decoy < 60008; ++decoy) {
    w.stream.Append(decoy, 50000);
    w.stream.Append(decoy, -49990);
    w.frequencies[decoy] += 10;
  }
  std::printf("stream: %zu updates over %" PRIu64 " users\n",
              w.stream.length(), users);

  const GFunctionPtr g = MakePower(2.0);
  const double lambda = 0.02;
  const auto truth = ExactGHeavyHitters(w.frequencies, g->AsCallable(),
                                        lambda);
  std::printf("ground truth: %zu (g, %.2f)-heavy users\n", truth.size(),
              lambda);

  // Two-pass, both passes sharded across 4 workers: pass 1 merges the
  // trackers by candidate union, pass 2 tabulates the frozen candidates
  // exactly on each shard and sums the counts.
  IngestEngineOptions engine_options;
  engine_options.shards = 4;
  TwoPassHHOptions two_pass;
  two_pass.count_sketch = {5, 2048};
  two_pass.candidates = 32;
  const TwoPassHeavyHitter hh2 =
      ProcessStreamSharded(w.stream, engine_options, [&](size_t) {
        Rng shard_rng(0xc0de);  // same seed per shard => shared hashes
        return TwoPassHeavyHitter(two_pass, shard_rng);
      });
  std::printf("\ntwo-pass cover (exact weights), sharded x%zu:\n",
              engine_options.shards);
  for (const GCoverEntry& e : hh2.Cover(*g)) {
    if (g->ValueAbs(e.frequency) < 1e6) continue;  // print the heavy tail
    std::printf("  user %8" PRIu64 "  v = %8" PRIu64 "  g(v) = %.3e\n",
                e.item, static_cast<uint64_t>(e.frequency), e.g_value);
  }

  // One-pass, sharded: a single pass, weights from the merged CountSketch
  // estimates, stability-pruned with the AMS-derived radius.
  OnePassHHOptions one_pass;
  one_pass.count_sketch = {5, 4096};
  one_pass.ams = {32, 5};
  one_pass.candidates = 32;
  const OnePassHeavyHitter hh1 =
      ProcessStreamSharded(w.stream, engine_options, [&](size_t) {
        Rng shard_rng(0xc0de);
        return OnePassHeavyHitter(one_pass, shard_rng);
      });
  std::printf("\none-pass cover (estimates, pruning radius %" PRId64
              "), sharded x%zu:\n",
              hh1.PruningRadius(), engine_options.shards);
  size_t shown = 0;
  for (const GCoverEntry& e : hh1.Cover(*g)) {
    if (++shown > 8) break;
    std::printf("  user %8" PRIu64 "  v-hat = %8" PRIu64 "  g = %.3e\n",
                e.item, static_cast<uint64_t>(e.frequency), e.g_value);
  }

  // Every true heavy user must appear in both covers.  Decode each cover
  // once and check membership against sets.
  std::unordered_set<ItemId> covered2, covered1;
  for (const GCoverEntry& e : hh2.Cover(*g)) covered2.insert(e.item);
  for (const GCoverEntry& e : hh1.Cover(*g)) covered1.insert(e.item);
  size_t missed = 0;
  for (const auto& [item, value] : truth) {
    if (!covered2.contains(item) || !covered1.contains(item)) ++missed;
  }
  std::printf("\nrecall: %zu/%zu true heavy users missed\n", missed,
              truth.size());
  return missed == 0 ? 0 : 1;
}
