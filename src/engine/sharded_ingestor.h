// ShardedIngestor<SketchT>: the replicate -> ingest -> merge pattern on top
// of IngestEngine, for any type with UpdateBatch and a fingerprint-guarded
// MergeFrom.  SketchT need not be a LinearSketch, or copyable: move-only
// mergeable units work too -- the whole recursive g-sum stack
// (RecursiveGSum) and the top-level GSumEstimator shard through here via
// their Replicate()/MergeFrom pairs, exactly like a plain CountSketch.
//
// The caller supplies a factory that builds one replica per shard; every
// replica must be constructed from an equal-state Rng (same seed), so all
// shards share hash functions and MergeFrom's fingerprint guard accepts the
// final merge.  Because the sketch states are linear over int64 counters --
// and integer addition is commutative and associative even under wraparound
// -- the merged sketch is bit-identical to one that processed the whole
// stream sequentially, for any split of the stream and any thread
// interleaving.  tests/engine/ingest_engine_test.cc pins exactly that.
// (Composite units additionally carry non-linear candidate metadata; see
// docs/engine.md on the candidate-union merge for what is exact there.)
//
// Typical use:
//
//   IngestEngineOptions options;
//   ShardedIngestor<CountSketch> ingest(options, [](size_t /*shard*/) {
//     Rng rng(kSeed);  // same seed per shard => shared hash functions
//     return CountSketch(CountSketchOptions{5, 1024}, rng);
//   });
//   ingest.Open(/*n_shards=*/4);
//   ingest.Submit(updates, n);        // any number of times
//   CountSketch& merged = ingest.Close();
//
// ProcessStreamSharded() wraps the whole lifecycle -- every pass the unit
// declares -- over a Stream, the parallel counterpart of ProcessStream
// (linear_sketch.h).

#ifndef GSTREAM_ENGINE_SHARDED_INGESTOR_H_
#define GSTREAM_ENGINE_SHARDED_INGESTOR_H_

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/ingest_engine.h"
#include "obs/trace.h"
#include "stream/stream.h"
#include "util/logging.h"

namespace gstream {

template <typename SketchT>
class ShardedIngestor {
 public:
  // Builds the replica for shard `shard`; called once per shard at Open().
  using Factory = std::function<SketchT(size_t shard)>;

  ShardedIngestor(const IngestEngineOptions& options, Factory make)
      : options_(options), make_(std::move(make)) {
    GSTREAM_CHECK(make_ != nullptr);
  }

  // Builds the replicas and starts the workers.  `n_shards` overrides
  // options.shards; the zero-argument form uses it as-is.
  void Open() { Open(options_.shards); }
  void Open(size_t n_shards) {
    GSTREAM_CHECK(engine_ == nullptr);
    GSTREAM_CHECK_GE(n_shards, 1u);
    options_.shards = n_shards;
    replicas_.clear();
    replicas_.reserve(n_shards);
    for (size_t s = 0; s < n_shards; ++s) replicas_.push_back(make_(s));
    std::vector<BatchSink> sinks;
    sinks.reserve(n_shards);
    for (SketchT& replica : replicas_) {
      sinks.push_back([&replica](const Update* updates, size_t n) {
        replica.UpdateBatch(updates, n);
      });
    }
    engine_ = std::make_unique<IngestEngine>(options_, std::move(sinks));
  }

  // Routes updates to the shard replicas (single producer thread), under
  // the engine's overload policy (see ProducerHandle::Submit for the
  // SubmitResult contract; trivially all-accepted under kBlock).
  SubmitResult Submit(const Update* updates, size_t n) {
    GSTREAM_CHECK(engine_ != nullptr);
    return engine_->Submit(updates, n);
  }

  // Claims a producer lane for a concurrent feed thread (see
  // IngestEngine::AddProducer); options.max_producers bounds the claims.
  // Each handle must be Close()d by its owning thread before Close()
  // here.
  ProducerHandle* AddProducer() {
    GSTREAM_CHECK(engine_ != nullptr);
    return engine_->AddProducer();
  }
  SubmitResult SubmitStream(const Stream& stream) {
    return Submit(stream.updates().data(), stream.length());
  }

  // Drains the rings and joins the workers WITHOUT merging, leaving every
  // replica's state intact and race-free to read.  Close() may still be
  // called afterwards to merge.  Returns the engine's first recorded
  // error (EngineError::ok() on a healthy run).
  EngineError Drain() {
    GSTREAM_CHECK(engine_ != nullptr);
    return engine_->Close();
  }

  // Drains the rings, joins the workers, merges every replica into shard
  // 0's (fingerprint-guarded), and returns it.  Idempotent.
  SketchT& Close() {
    GSTREAM_CHECK(engine_ != nullptr);
    engine_->Close();
    if (!merged_) {
      merged_ = true;
      obs::TraceSpan span("engine/merge", "engine");
      obs::ScopedTimer timer(
          obs::Registry::Get().GetHistogram("engine/merge_ns"));
      for (size_t s = 1; s < replicas_.size(); ++s) {
        replicas_[0].MergeFrom(replicas_[s]);
      }
    }
    return replicas_[0];
  }

  // Per-shard replicas.  While ingestion is running the workers mutate
  // them concurrently, so reading is a data race: query only after
  // Drain() (all replicas hold their per-shard state) or after Close()
  // (replica 0 holds the merged state; replicas 1..N-1 still hold their
  // per-shard state).
  std::vector<SketchT>& replicas() { return replicas_; }

  IngestStats stats() const {
    GSTREAM_CHECK(engine_ != nullptr);
    return engine_->stats();
  }

  // Quiesce without closing: every committed chunk applied, workers parked.
  // Afterwards replicas() and stats() are race-free to read (and
  // serialize) until the next Submit.  Returns the engine's first
  // recorded error (see IngestEngine::Flush for the degraded-shard grace
  // contract).
  EngineError Flush() {
    GSTREAM_CHECK(engine_ != nullptr);
    return engine_->Flush();
  }

  // Barrier snapshot (see IngestEngine::Barrier): each shard's worker
  // calls `at_marker(shard, replica)` on its own thread once its replica
  // holds exactly what was submitted before this call.  After an ok
  // return, replicas() and stats() are race-free to read until the next
  // Submit, as after Flush().  The checkpoint hook (persist/checkpoint.h)
  // serializes every replica this way, in parallel.
  EngineError Barrier(
      const std::function<void(size_t shard, const SketchT& replica)>&
          at_marker) {
    GSTREAM_CHECK(engine_ != nullptr);
    return engine_->Barrier(
        [&](size_t shard) { at_marker(shard, replicas_[shard]); });
  }

  // The first failure recorded on the underlying engine (kNone while
  // healthy; stable once Drain()/Close() returned).
  EngineError error() const {
    GSTREAM_CHECK(engine_ != nullptr);
    return engine_->error();
  }

  IngestProducerState SnapshotProducerState() const {
    GSTREAM_CHECK(engine_ != nullptr);
    return engine_->SnapshotProducerState();
  }

  // Restores producer routing state into a freshly Open()ed ingestor (see
  // IngestEngine::RestoreProducerState); replica state is restored
  // separately via the sketch wire format.
  void RestoreProducerState(const IngestProducerState& state) {
    GSTREAM_CHECK(engine_ != nullptr);
    engine_->RestoreProducerState(state);
  }

  // The effective engine options (shards resolved by Open), exposed so the
  // checkpoint driver can assert its interval aligns with chunk framing.
  const IngestEngineOptions& engine_options() const { return options_; }

 private:
  IngestEngineOptions options_;
  Factory make_;
  std::vector<SketchT> replicas_;
  std::unique_ptr<IngestEngine> engine_;
  bool merged_ = false;
};

// A factory that replicates an existing prototype into every shard -- the
// later-pass pattern for multi-pass algorithms, where each shard must start
// from the same frozen decode state (e.g. a two-pass heavy hitter's
// candidate list after AdvancePass).  Move-only units (RecursiveGSum,
// GSumEstimator) are deep-copied through their Replicate(); everything
// else is copied.  The prototype is captured by reference and must outlive
// Open().
template <typename SketchT>
typename ShardedIngestor<SketchT>::Factory ReplicateFactory(
    const SketchT& prototype) {
  return [&prototype](size_t /*shard*/) -> SketchT {
    if constexpr (requires { prototype.Replicate(); }) {
      return prototype.Replicate();
    } else {
      return prototype;
    }
  };
}

// Sharded run of every pass `SketchT` declares over `stream`: the parallel
// counterpart of ProcessStream, and the one way to shard an algorithm.
// Pass 1 ingests into the factory's fresh same-seed replicas; a unit with
// passes() > 1 is then advanced on the merged state, and each later pass
// replicates that frozen state into every shard (ReplicateFactory) and
// merges again.  Returns the merged unit by value.
//
// The factory must build fresh units: a pre-fed prototype would be
// counted once per shard at the merge.
template <typename Factory,
          typename SketchT = std::decay_t<std::invoke_result_t<Factory, size_t>>>
SketchT ProcessStreamSharded(const Stream& stream,
                             const IngestEngineOptions& options,
                             Factory&& make) {
  auto run_pass = [&](typename ShardedIngestor<SketchT>::Factory factory) {
    ShardedIngestor<SketchT> ingest(options, std::move(factory));
    ingest.Open();
    ingest.SubmitStream(stream);
    return SketchT(std::move(ingest.Close()));
  };
  SketchT merged = run_pass(std::forward<Factory>(make));
  if constexpr (requires(const SketchT& unit) { unit.passes(); }) {
    for (int pass = 1; pass < merged.passes(); ++pass) {
      merged.AdvancePass();
      merged = run_pass(ReplicateFactory(merged));
    }
  }
  return merged;
}

}  // namespace gstream

#endif  // GSTREAM_ENGINE_SHARDED_INGESTOR_H_
