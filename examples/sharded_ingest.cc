// Sharded multi-source ingestion (the src/engine/ subsystem end to end):
// ad-click traffic arriving from several regional collectors is fanned
// across worker threads, each owning a same-seed CountSketch replica, and
// merged -- exactly, by linearity -- into one sketch at close.
//
// Each regional collector runs on its own thread with its own
// ProducerHandle (the multi-producer front end, docs/engine.md): the
// regions really do submit concurrently, over private SPSC lanes, and the
// merged sketch still answers per-user queries as if a single sketch had
// seen every region's stream in order.
//
// This is the scale-out companion of examples/ad_click_billing.cc, which
// sketches one day of one region's clicks sequentially.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "engine/sharded_ingestor.h"
#include "sketch/count_sketch.h"
#include "stream/generators.h"
#include "util/random.h"

int main() {
  using namespace gstream;

  // Four regional collectors, each a day of Zipf-skewed clicks with ~5%
  // chargeback churn (turnstile deletions).
  const uint64_t users = uint64_t{1} << 20;
  const size_t regions = 4;
  const size_t clicks_per_region = 2000000;
  Rng rng(0xad5);

  std::printf("synthesizing %zu regional click feeds (~%zu clicks each, "
              "aggregated updates + chargeback churn)...\n",
              regions, clicks_per_region);
  std::vector<Stream> feeds;
  FrequencyMap exact;
  for (size_t r = 0; r < regions; ++r) {
    StreamShapeOptions shape;
    shape.churn_pairs = clicks_per_region / 40;
    Workload w = MakeZipfWorkload(users, 50000, 1.1,
                                  static_cast<int64_t>(clicks_per_region) /
                                      100,
                                  shape, rng);
    for (const auto& [item, v] : w.frequencies) exact[item] += v;
    feeds.push_back(std::move(w.stream));
  }

  // Whole chunks rotate across the workers, and the fingerprint-guarded
  // merge at Close() reassembles the exact global sketch.
  const uint64_t kSketchSeed = 0xc11c;
  IngestEngineOptions options;
  options.max_producers = regions;  // one ProducerHandle per collector
  ShardedIngestor<CountSketch> ingest(options, [kSketchSeed](size_t) {
    Rng sketch_rng(kSketchSeed);
    return CountSketch(CountSketchOptions{5, 4096}, sketch_rng);
  });
  ingest.Open(/*n_shards=*/4);

  size_t total_updates = 0;
  for (const Stream& feed : feeds) total_updates += feed.length();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> collectors;
  collectors.reserve(feeds.size());
  for (const Stream& feed : feeds) {
    // Each collector claims its handle, streams its feed, and closes the
    // handle before the thread exits -- the whole multi-producer contract.
    // Interleave sources freely: merge is exact by linearity.
    collectors.emplace_back([&ingest, &feed] {
      ProducerHandle* const handle = ingest.AddProducer();
      handle->SubmitStream(feed);
      handle->Close();
    });
  }
  for (std::thread& c : collectors) c.join();
  CountSketch& merged = ingest.Close();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const IngestStats& stats = ingest.stats();
  std::printf("ingested %zu updates through %zu shards in %.3fs "
              "(%.1f M updates/sec)\n",
              total_updates, stats.shard_updates.size(), seconds,
              static_cast<double>(total_updates) / seconds / 1e6);
  std::printf("chunks committed: %llu, producer stalls: %llu\n",
              static_cast<unsigned long long>(stats.chunks_committed),
              static_cast<unsigned long long>(stats.producer_stalls));
  for (size_t s = 0; s < stats.shard_updates.size(); ++s) {
    std::printf("  shard %zu: %llu updates\n", s,
                static_cast<unsigned long long>(stats.shard_updates[s]));
  }

  // Spot-check the heaviest clickers against exact counts.
  std::vector<std::pair<int64_t, ItemId>> top;
  for (const auto& [item, v] : exact) top.push_back({v, item});
  std::sort(top.rbegin(), top.rend());
  std::printf("top clickers (exact vs merged-sketch estimate):\n");
  for (size_t i = 0; i < 5 && i < top.size(); ++i) {
    std::printf("  user %8llu: exact %lld, estimate %lld\n",
                static_cast<unsigned long long>(top[i].second),
                static_cast<long long>(top[i].first),
                static_cast<long long>(merged.Estimate(top[i].second)));
  }
  std::printf("sketch bytes: %zu\n", merged.SpaceBytes());
  return 0;
}
