// The three benchmark workloads.  Each drives the library only through its
// public API, from inputs generated from the run's seed:
//
//   firehose      Zipf stream held in memory, replayed into a 3-shard
//                 ShardedIngestor<CountSketch>: engine + hash/scatter
//                 kernels, no core or persist work.
//   gsum_replay   a recorded stream file loaded with LoadStream, run through
//                 a 3-shard whole-stack ShardedIngestor<RecursiveGSum>,
//                 merged, estimated (g = x^2) and saved: stream and core.
//   durable_topk  a 3-shard ShardedIngestor<OnePassHeavyHitter> fed in
//                 checkpoint intervals; after each checkpoint an operator
//                 query merges the replicas and decodes the cover: persist
//                 and the query path.
//
// Spans (obs::TraceSpan) are recorded around the benchmark's calls into
// each module; they cost one relaxed load while the trace log is off.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/one_pass_hh.h"
#include "core/recursive_sketch.h"
#include "engine/sharded_ingestor.h"
#include "gfunc/catalog.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "persist/checkpoint.h"
#include "persist/sketch_io.h"
#include "sketch/count_sketch.h"
#include "sketch/linear_sketch.h"
#include "stream/exact.h"
#include "stream/stream_io.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/simd/simd_dispatch.h"

namespace gstream {
namespace perfbench {

namespace {

constexpr uint64_t kDomain = uint64_t{1} << 20;
constexpr size_t kItems = 100000;
constexpr double kZipf = 1.1;
constexpr size_t kShards = 3;
// Heaviness threshold of the recall check (the verify suite's lambda).
constexpr double kLambda = 0.05;
// The verify suite's g-sum accuracy target.
constexpr double kEpsTarget = 0.3;
// Wall time each isolated stage is repeated for.
constexpr double kStageSeconds = 0.25;

IngestEngineOptions EngineOptions() {
  IngestEngineOptions options;
  options.shards = kShards;
  options.policy = PartitionPolicy::kRoundRobinChunks;
  options.overload = OverloadPolicy::kBlock;
  return options;
}

// Hash seed of every sketch.  Fixed, like a deployment's configuration:
// the run's seed draws the stream, not the hash functions.  (With per-run
// hashes the subsampling depth of the few Zipf-heaviest items would move
// gsum_replay's per-update work by several percent from seed to seed.)
constexpr uint64_t kSketchSeed = 0x5eed;

uint64_t Elapsed(uint64_t start) { return NowNs() - start; }

bool SameUpdates(const Stream& a, const Stream& b) {
  return a.domain() == b.domain() && a.length() == b.length() &&
         std::memcmp(a.updates().data(), b.updates().data(),
                     a.length() * sizeof(Update)) == 0;
}

// Writes `bytes` to `path` with plain buffered I/O (no fsync).
bool WriteFile(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                     bytes.size();
  return std::fclose(f) == 0 && wrote;
}

// The newest of a series of saved states: each save goes to a fresh file
// `<base>.<n>` and then unlinks the previous one, without fsync.  On ext4
// a rename over (or truncation of) an existing file starts a flush of the
// new data (auto_da_alloc), which would make every save cost a disk write;
// the durable cost (WriteFileAtomic's fsyncs) is reported apart as
// persist.write_disk_ms.
class SaveSlot {
 public:
  explicit SaveSlot(std::string base) : base_(std::move(base)) {}
  ~SaveSlot() { Clear(); }
  SaveSlot(const SaveSlot&) = delete;
  SaveSlot& operator=(const SaveSlot&) = delete;

  bool Save(std::string_view bytes) {
    const std::string path = base_ + "." + std::to_string(++saves_);
    if (!WriteFile(path, bytes)) return false;
    Clear();
    current_ = path;
    return true;
  }
  void Clear() {
    if (!current_.empty()) std::remove(current_.c_str());
    current_.clear();
  }
  const std::string& current() const { return current_; }

 private:
  std::string base_;
  std::string current_;
  uint64_t saves_ = 0;
};

// Exact truths the correctness gates and quality figures compare against.
struct Truth {
  double f2 = 0.0;  // = the g-sum for g = x^2
  std::vector<ItemId> heavy;  // exact (x^2, kLambda)-heavy hitters
};

Truth ExactTruth(const Stream& stream) {
  const FrequencyMap freq = ExactFrequencies(stream);
  Truth truth;
  const GFunctionPtr g = MakePower(2.0);
  truth.f2 = ExactGSum(freq, g->AsCallable());
  for (const auto& [item, v] : ExactGHeavyHitters(freq, g->AsCallable(),
                                                  kLambda)) {
    truth.heavy.push_back(item);
  }
  return truth;
}

double RelError(double estimate, double truth) {
  return truth == 0.0 ? 0.0 : std::fabs(estimate - truth) / truth;
}

double Recall(const std::vector<ItemId>& heavy, const GCover& cover) {
  if (heavy.empty()) return 1.0;
  std::unordered_set<ItemId> covered;
  for (const GCoverEntry& e : cover) covered.insert(e.item);
  size_t hit = 0;
  for (const ItemId item : heavy) hit += covered.contains(item) ? 1 : 0;
  return static_cast<double>(hit) / static_cast<double>(heavy.size());
}

// Distinct items of the stream, in first-arrival order, at most `n`.
std::vector<ItemId> ProbeItems(const Stream& stream, size_t n) {
  std::vector<ItemId> probes;
  std::unordered_set<ItemId> seen;
  for (const Update& u : stream.updates()) {
    if (probes.size() == n) break;
    if (seen.insert(u.item).second) probes.push_back(u.item);
  }
  return probes;
}

// The hash-kernel stages of one CountSketch geometry, in isolation, over
// the workload's own chunks: field-power prepare, the fused eval4_bucket
// row kernel, and the signed counter scatter.
void SimdStages(const Stream& stream, size_t rows, uint64_t buckets,
                uint64_t seed, Metrics* out) {
  const simd::SimdOps& ops = simd::Ops();
  const Update* data = stream.updates().data();
  const size_t total = stream.length();
  constexpr size_t kB = kStreamBatchSize;
  alignas(64) uint64_t xm[kB], x2[kB], x3[kB];
  alignas(64) int64_t delta[kB];
  std::vector<uint32_t> idx(rows * kB);
  std::vector<int64_t> sd(rows * kB);
  std::vector<int64_t> counters(rows * buckets, 0);
  Rng rng(seed);
  std::vector<uint64_t> c(rows * 4);
  for (uint64_t& v : c) v = rng.UniformUint64(kMersenne61);

  out->push_back({"simd.prepare_ns_per_update",
                  NsPerUnit(kStageSeconds, 1, total, [&] {
                    for (size_t i = 0; i < total; i += kB) {
                      ops.prepare_batch(data + i, std::min(kB, total - i), xm,
                                        x2, x3, delta);
                    }
                    KeepAlive(xm[0]);
                  })});

  uint64_t eval_ns = 0;
  uint64_t scatter_ns = 0;
  uint64_t passes = 0;
  const uint64_t budget = static_cast<uint64_t>(kStageSeconds * 1e9);
  while (passes == 0 || eval_ns + scatter_ns < budget) {
    for (size_t i = 0; i < total; i += kB) {
      const size_t n = std::min(kB, total - i);
      ops.prepare_batch(data + i, n, xm, x2, x3, delta);
      const uint64_t t0 = NowNs();
      for (size_t r = 0; r < rows; ++r) {
        ops.eval4_bucket(c[4 * r], c[4 * r + 1], c[4 * r + 2], c[4 * r + 3],
                         xm, x2, x3, delta, buckets, n, &idx[r * kB],
                         &sd[r * kB]);
      }
      const uint64_t t1 = NowNs();
      for (size_t r = 0; r < rows; ++r) {
        ops.scatter_add_signed(&counters[r * buckets], &idx[r * kB],
                               &sd[r * kB], n);
      }
      const uint64_t t2 = NowNs();
      eval_ns += t1 - t0;
      scatter_ns += t2 - t1;
    }
    ++passes;
  }
  KeepAlive(counters[0]);
  const double updates = static_cast<double>(passes * total);
  out->push_back({"simd.eval4_bucket_ns_per_update",
                  static_cast<double>(eval_ns) / updates});
  out->push_back({"simd.scatter_ns_per_update",
                  static_cast<double>(scatter_ns) / updates});
}

// Sequential UpdateBatch of the workload's sink type over its chunks, a
// fresh sink per pass (`make` builds it).
template <typename MakeFn>
double UpdateBatchNs(const Stream& stream, MakeFn&& make) {
  uint64_t ns = 0;
  uint64_t passes = 0;
  const uint64_t budget = static_cast<uint64_t>(kStageSeconds * 1e9);
  while (passes == 0 || ns < budget) {
    auto sink = make();
    const Update* data = stream.updates().data();
    const size_t total = stream.length();
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < total; i += kStreamBatchSize) {
      sink.UpdateBatch(data + i, std::min(kStreamBatchSize, total - i));
    }
    ns += Elapsed(t0);
    ++passes;
    KeepAlive(sink);
  }
  return static_cast<double>(ns) /
         static_cast<double>(passes * stream.length());
}

// CountSketch point-query decode over distinct stream items.
double EstimateAllNs(const CountSketch& sketch, const Stream& stream) {
  const std::vector<ItemId> probes = ProbeItems(stream, 4096);
  std::vector<int64_t> out(probes.size());
  return NsPerUnit(0.1, 10, probes.size(), [&] {
    sketch.EstimateAllInto(probes.data(), probes.size(), out.data());
    KeepAlive(out[0]);
  });
}

// Producer framing and ring handoff alone: the workload's engine options
// with no-op sinks, the whole stream submitted, then Close.
double FramingNs(const Stream& stream) {
  return NsPerUnit(kStageSeconds, 2, stream.length(), [&] {
    std::vector<BatchSink> sinks(kShards, [](const Update*, size_t) {});
    IngestEngine engine(EngineOptions(), std::move(sinks));
    engine.SubmitStream(stream);
    engine.Close();
  });
}

// The durable write of `bytes` on the run directory's own disk
// (WriteFileAtomic: tmp write, fsync, rename, parent fsync).  Disk-bound.
double WriteDiskMs(const std::string& dir, std::string_view bytes) {
  const std::string path = dir + "/disk_probe.bin";
  const double ms = MedianMs(3, [&] { WriteFileAtomic(path, bytes); });
  std::remove(path.c_str());
  return ms;
}

// ---------------------------------------------------------------------------
// firehose
// ---------------------------------------------------------------------------

class Firehose : public Workload {
 public:
  void Setup(const Args& args) override {
    dir_ = args.dir;
    stream_ = MakeZipfStream(kUpdates, args.seed);
    reference_.clear();
  }

  Tally Run(double seconds) override {
    if (reference_.empty()) {
      CountSketch ref = MakeSketch();
      ProcessStream(ref, stream_);
      reference_ = SerializeSketch(ref);
      truth_ = ExactTruth(stream_);
    }
    const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
    Tally t;
    t.tail_p = 0.99;  // ~2000 cycles in 10 s
    while (t.failed == 0 && t.wall_ns < budget) {
      ShardedIngestor<CountSketch> ingest(
          EngineOptions(), [this](size_t) { return MakeSketch(); });
      EngineError error;
      CountSketch* merged = nullptr;
      const uint64_t c0 = NowNs();
      {
        obs::TraceSpan cycle("firehose/cycle", "bench");
        {
          obs::TraceSpan span("firehose/open", "engine");
          ingest.Open();
        }
        const uint64_t s0 = NowNs();
        {
          obs::TraceSpan span("firehose/submit", "engine");
          ingest.SubmitStream(stream_);
        }
        const uint64_t d0 = NowNs();
        t.submit_ns += d0 - s0;
        {
          obs::TraceSpan span("firehose/drain", "engine");
          error = ingest.Drain();
        }
        const uint64_t m0 = NowNs();
        t.drain_ns += m0 - d0;
        {
          obs::TraceSpan span("firehose/merge", "engine");
          merged = &ingest.Close();
        }
        t.merge_ns += Elapsed(m0);
        ++t.merges;
      }
      const uint64_t cycle_ns = Elapsed(c0);
      t.wall_ns += cycle_ns;
      t.engine_ns += cycle_ns;
      t.AddCycle(cycle_ns, stream_.length());

      t.AddEngine(ingest.stats(), stream_.length(), error);
      t.Check(SerializeSketch(*merged) == reference_,
              "firehose: merged CountSketch blob != sequential ProcessStream");
      t.sketch_bytes = merged->SpaceBytes();
      if (t.wall_ns >= budget) Quality(*merged, &t);
    }
    return t;
  }

  Metrics Layers() override {
    Metrics m;
    SimdStages(stream_, kGeometry.rows, kGeometry.buckets, kSketchSeed, &m);
    m.push_back({"sketch.update_batch_ns_per_update",
                 UpdateBatchNs(stream_, [this] { return MakeSketch(); })});
    CountSketch sketch = MakeSketch();
    ProcessStream(sketch, stream_);
    m.push_back({"sketch.estimate_all_ns_per_probe",
                 EstimateAllNs(sketch, stream_)});
    m.push_back({"engine.framing_ns_per_update", FramingNs(stream_)});
    m.push_back({"core.recursive_update_ns_per_update", 0.0});
    // No persist stage on this path; the serialize figures are the merged
    // sketch's, the one blob a caller would keep.
    std::string blob;
    m.push_back({"persist.serialize_ms",
                 MedianMs(5, [&] { blob = SerializeSketch(sketch); })});
    CountSketch shell = MakeSketch();
    m.push_back({"persist.deserialize_ms", MedianMs(5, [&] {
                   DeserializeSketch(blob, &shell);
                 })});
    m.push_back({"persist.restore_ms", 0.0});
    m.push_back({"persist.write_disk_ms", WriteDiskMs(dir_, blob)});
    return m;
  }

 private:
  static constexpr size_t kUpdates = 2'000'000;
  static constexpr CountSketchOptions kGeometry{5, 1024};

  CountSketch MakeSketch() const {
    Rng rng(kSketchSeed);
    return CountSketch(kGeometry, rng);
  }

  // x^2-sum error of the sketch's F2 estimate, and recall of the exact
  // heavy hitters under the sketch's own heaviness test.
  void Quality(const CountSketch& merged, Tally* t) const {
    const double f2 = merged.EstimateF2();
    t->gsum_rel_error = RelError(f2, truth_.f2);
    size_t hit = 0;
    for (const ItemId item : truth_.heavy) {
      const double e = static_cast<double>(merged.Estimate(item));
      hit += e * e >= kLambda * (f2 - e * e) ? 1 : 0;
    }
    t->hh_recall = truth_.heavy.empty()
                       ? 1.0
                       : static_cast<double>(hit) /
                             static_cast<double>(truth_.heavy.size());
  }

  std::string dir_;
  Stream stream_{kDomain};
  std::string reference_;
  Truth truth_;
};

// ---------------------------------------------------------------------------
// gsum_replay
// ---------------------------------------------------------------------------

class GsumReplay : public Workload {
 public:
  void Setup(const Args& args) override {
    dir_ = args.dir;
    stream_path_ = dir_ + "/replay.gstream";
    saved_ = std::make_unique<SaveSlot>(dir_ + "/replay.gskb");
    stream_ = MakeZipfStream(kUpdates, args.seed);
    setup_ok_ = SaveStream(stream_, stream_path_);
    truth_.reset();
  }

  Tally Run(double seconds) override {
    if (!truth_.has_value()) truth_ = ExactTruth(stream_);
    const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
    Tally t;
    t.tail_p = 0.5;  // ~17 cycles in 10 s
    t.Check(setup_ok_, "gsum_replay: SaveStream failed");
    while (t.failed == 0 && t.wall_ns < budget) {
      ShardedIngestor<RecursiveGSum> ingest(
          EngineOptions(), [this](size_t) { return MakeStack(); });
      std::optional<Stream> loaded;
      EngineError error;
      RecursiveGSum* merged = nullptr;
      double estimate = 0.0;
      std::string blob;
      bool wrote = false;
      const uint64_t c0 = NowNs();
      {
        obs::TraceSpan cycle("gsum/cycle", "bench");
        {
          obs::TraceSpan span("gsum/load", "stream");
          loaded = LoadStream(stream_path_);
        }
        const uint64_t s0 = NowNs();
        t.load_ns += s0 - c0;
        if (!loaded.has_value()) {
          t.Check(false, "gsum_replay: LoadStream failed");
          break;
        }
        {
          obs::TraceSpan span("gsum/open", "engine");
          ingest.Open();
        }
        {
          obs::TraceSpan span("gsum/submit", "engine");
          ingest.SubmitStream(*loaded);
        }
        const uint64_t d0 = NowNs();
        t.submit_ns += d0 - s0;
        {
          obs::TraceSpan span("gsum/drain", "engine");
          error = ingest.Drain();
        }
        const uint64_t m0 = NowNs();
        t.drain_ns += m0 - d0;
        {
          obs::TraceSpan span("gsum/merge", "engine");
          merged = &ingest.Close();
        }
        const uint64_t e0 = NowNs();
        t.merge_ns += e0 - m0;
        ++t.merges;
        t.engine_ns += e0 - s0;
        {
          obs::TraceSpan span("gsum/estimate", "core");
          estimate = merged->Estimate(*g_);
        }
        t.estimate_ns += Elapsed(e0);
        ++t.estimates;
        {
          obs::TraceSpan span("gsum/serialize", "persist");
          blob = SerializeSketch(*merged);
        }
        const uint64_t w0 = NowNs();
        {
          obs::TraceSpan span("gsum/write", "persist");
          wrote = saved_->Save(blob);
        }
        t.write_ns += Elapsed(w0);
        ++t.writes;
      }
      const uint64_t cycle_ns = Elapsed(c0);
      t.wall_ns += cycle_ns;
      t.AddCycle(cycle_ns, loaded->length());
      t.write_bytes = blob.size();

      t.AddEngine(ingest.stats(), stream_.length(), error);
      t.Check(SameUpdates(*loaded, stream_),
              "gsum_replay: replayed stream differs from the generated one");
      t.Check(wrote, "gsum_replay: sketch save failed");
      RecursiveGSum shell = MakeStack();
      t.Check(LoadSketch(saved_->current(), &shell).ok() &&
                  SerializeSketch(shell) == blob,
              "gsum_replay: saved stack does not reload byte-equal");
      t.gsum_rel_error = RelError(estimate, truth_->f2);
      t.Check(t.gsum_rel_error <= kEpsTarget,
              "gsum_replay: relative error above the 0.3 target");
      const uint64_t k0 = NowNs();
      const GCover cover = merged->level_sketch(0).Cover(*g_);
      t.cover_ns += Elapsed(k0);
      ++t.covers;
      t.hh_recall = Recall(truth_->heavy, cover);
      t.sketch_bytes = merged->SpaceBytes();
    }
    std::error_code ec;
    const uintmax_t file_bytes = std::filesystem::file_size(stream_path_, ec);
    t.file_bytes = ec ? 0 : file_bytes;
    return t;
  }

  Metrics Layers() override {
    Metrics m;
    SimdStages(stream_, kLevel.count_sketch.rows, kLevel.count_sketch.buckets,
               kSketchSeed, &m);
    m.push_back({"sketch.update_batch_ns_per_update",
                 UpdateBatchNs(stream_, [this] { return MakeLevel(); })});
    OnePassHeavyHitter level = MakeLevel();
    ProcessStream(level, stream_);
    m.push_back({"sketch.estimate_all_ns_per_probe",
                 EstimateAllNs(level.tracker().sketch(), stream_)});
    m.push_back({"engine.framing_ns_per_update", FramingNs(stream_)});
    m.push_back({"core.recursive_update_ns_per_update",
                 UpdateBatchNs(stream_, [this] { return MakeStack(); })});
    RecursiveGSum stack = MakeStack();
    for (size_t i = 0; i < stream_.length(); i += kStreamBatchSize) {
      stack.UpdateBatch(stream_.updates().data() + i,
                        std::min(kStreamBatchSize, stream_.length() - i));
    }
    std::string blob;
    m.push_back({"persist.serialize_ms",
                 MedianMs(5, [&] { blob = SerializeSketch(stack); })});
    RecursiveGSum shell = MakeStack();
    m.push_back({"persist.deserialize_ms", MedianMs(5, [&] {
                   DeserializeSketch(blob, &shell);
                 })});
    SaveSlot probe(dir_ + "/restore_probe.gskb");
    probe.Save(blob);
    m.push_back({"persist.restore_ms", MedianMs(5, [&] {
                   RecursiveGSum fresh = MakeStack();
                   LoadSketch(probe.current(), &fresh);
                 })});
    m.push_back({"persist.write_disk_ms", WriteDiskMs(dir_, blob)});
    return m;
  }

 private:
  static constexpr size_t kUpdates = 2'000'000;
  // One Theorem-13 stack: OnePassHeavyHitter per level, the level count
  // GSumEstimator picks for this domain and candidate budget
  // (20 domain bits - log2(48)).
  static constexpr int kLevels = 15;
  inline static const OnePassHHOptions kLevel = [] {
    OnePassHHOptions o;
    o.count_sketch = CountSketchOptions{5, 1024};
    o.ams = AmsOptions{32, 5};
    o.candidates = 48;
    return o;
  }();

  OnePassHeavyHitter MakeLevel() const {
    Rng rng(kSketchSeed);
    return OnePassHeavyHitter(kLevel, rng);
  }
  RecursiveGSum MakeStack() const {
    Rng rng(kSketchSeed);
    return RecursiveGSum(
        kLevels,
        [](int, Rng& r) {
          return std::make_unique<OnePassHeavyHitter>(kLevel, r);
        },
        rng);
  }
  std::string dir_;
  std::string stream_path_;
  std::unique_ptr<SaveSlot> saved_;
  Stream stream_{kDomain};
  bool setup_ok_ = false;
  std::optional<Truth> truth_;
  const GFunctionPtr g_ = MakePower(2.0);
};

// ---------------------------------------------------------------------------
// durable_topk
// ---------------------------------------------------------------------------

class DurableTopK : public Workload {
 public:
  void Setup(const Args& args) override {
    dir_ = args.dir;
    checkpoints_ = std::make_unique<SaveSlot>(dir_ + "/topk.gckp");
    stream_ = MakeZipfStream(kUpdates, args.seed);
    truth_.reset();
  }

  Tally Run(double seconds) override {
    if (!truth_.has_value()) truth_ = ExactTruth(stream_);
    const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
    const Update* updates = stream_.updates().data();
    const uint64_t total = stream_.length();
    Tally t;
    t.tail_p = 0.99;  // ~4400 cycles in 10 s
    while (t.failed == 0 && t.wall_ns < budget) {
      ShardedIngestor<OnePassHeavyHitter> ingest(
          EngineOptions(), [this](size_t) { return MakeSketch(); });
      const uint64_t j0 = NowNs();
      uint64_t last_answer = j0;
      {
        obs::TraceSpan span("topk/open", "engine");
        ingest.Open();
      }
      for (uint64_t cursor = 0; cursor < total;) {
        obs::TraceSpan cycle("topk/cycle", "bench");
        const uint64_t n = std::min<uint64_t>(kInterval, total - cursor);
        const uint64_t s0 = NowNs();
        {
          obs::TraceSpan span("topk/submit", "engine");
          ingest.Submit(updates + cursor, n);
        }
        t.submit_ns += Elapsed(s0);
        cursor += n;
        CheckpointImage image;
        {
          obs::TraceSpan span("topk/snapshot", "persist");
          image = SnapshotIngestor(ingest, cursor);
        }
        const uint64_t w0 = NowNs();
        {
          obs::TraceSpan span("topk/write", "persist");
          const std::string bytes = EncodeCheckpoint(image);
          t.Check(checkpoints_->Save(bytes),
                  "durable_topk: checkpoint write failed");
          t.write_bytes = bytes.size();
        }
        const uint64_t q0 = NowNs();
        t.write_ns += q0 - w0;
        ++t.writes;
        Answer(ingest.replicas(), q0, &t);
        const uint64_t answered = NowNs();
        t.AddCycle(answered - last_answer, n);
        last_answer = answered;
      }
      EngineError error;
      const uint64_t d0 = NowNs();
      {
        obs::TraceSpan span("topk/drain", "engine");
        error = ingest.Drain();
      }
      const uint64_t m0 = NowNs();
      t.drain_ns += m0 - d0;
      OnePassHeavyHitter* merged = nullptr;
      {
        obs::TraceSpan span("topk/merge", "engine");
        merged = &ingest.Close();
      }
      t.merge_ns += Elapsed(m0);
      ++t.merges;
      t.engine_ns += Elapsed(j0);
      GCover final_cover;
      const uint64_t k0 = NowNs();
      {
        obs::TraceSpan span("topk/cover", "core");
        final_cover = merged->Cover(*g_);
      }
      const uint64_t end = NowNs();
      t.cover_ns += end - k0;
      ++t.covers;
      t.AddCycle(end - last_answer, 0);
      t.wall_ns += end - j0;

      t.AddEngine(ingest.stats(), total, error);
      t.hh_recall = Recall(truth_->heavy, final_cover);
      t.Check(t.hh_recall == 1.0, "durable_topk: recall below 1.0");
      t.gsum_rel_error = RelError(merged->ams().EstimateF2(), truth_->f2);
      t.Check(RestoresTo(*merged),
              "durable_topk: last checkpoint does not restore the state");
      t.sketch_bytes = merged->SpaceBytes();
    }
    return t;
  }

  Metrics Layers() override {
    Metrics m;
    SimdStages(stream_, kOptions.count_sketch.rows,
               kOptions.count_sketch.buckets, kSketchSeed, &m);
    m.push_back({"sketch.update_batch_ns_per_update",
                 UpdateBatchNs(stream_, [this] { return MakeSketch(); })});
    OnePassHeavyHitter hh = MakeSketch();
    ProcessStream(hh, stream_);
    m.push_back({"sketch.estimate_all_ns_per_probe",
                 EstimateAllNs(hh.tracker().sketch(), stream_)});
    m.push_back({"engine.framing_ns_per_update", FramingNs(stream_)});
    m.push_back({"core.recursive_update_ns_per_update", 0.0});

    // A live 3-shard ingest of the whole stream, quiesced: the state every
    // checkpoint of the pipeline serializes.
    ShardedIngestor<OnePassHeavyHitter> ingest(
        EngineOptions(), [this](size_t) { return MakeSketch(); });
    ingest.Open();
    ingest.SubmitStream(stream_);
    ingest.Flush();
    std::vector<std::string> blobs;
    m.push_back({"persist.serialize_ms", MedianMs(5, [&] {
                   blobs.clear();
                   for (const OnePassHeavyHitter& r : ingest.replicas()) {
                     blobs.push_back(SerializeSketch(r));
                   }
                 })});
    OnePassHeavyHitter shell = MakeSketch();
    m.push_back({"persist.deserialize_ms", MedianMs(5, [&] {
                   for (const std::string& b : blobs) {
                     DeserializeSketch(b, &shell);
                   }
                 })});
    const std::string bytes =
        EncodeCheckpoint(SnapshotIngestor(ingest, stream_.length()));
    ingest.Close();
    SaveSlot probe(dir_ + "/restore_probe.gckp");
    probe.Save(bytes);
    m.push_back({"persist.restore_ms", MedianMs(5, [&] {
                   CheckpointImage image;
                   LoadCheckpoint(probe.current(), &image);
                   ShardedIngestor<OnePassHeavyHitter> fresh(
                       EngineOptions(), [this](size_t) { return MakeSketch(); });
                   fresh.Open();
                   RestoreIngestor(image, &fresh);
                   fresh.Drain();
                 })});
    m.push_back({"persist.write_disk_ms", WriteDiskMs(dir_, bytes)});
    return m;
  }

 private:
  static constexpr size_t kUpdates = 4'000'000;
  // Checkpoint every 16 engine chunks.
  static constexpr uint64_t kInterval = 16 * kStreamBatchSize;
  // The verify suite's one-pass settings.
  inline static const OnePassHHOptions kOptions = [] {
    OnePassHHOptions o;
    o.count_sketch = CountSketchOptions{5, 4096};
    o.ams = AmsOptions{32, 5};
    o.candidates = 32;
    o.epsilon = 0.25;
    o.h_envelope = 1.0;
    return o;
  }();

  OnePassHeavyHitter MakeSketch() const {
    Rng rng(kSketchSeed);
    return OnePassHeavyHitter(kOptions, rng);
  }

  // The operator query after a checkpoint: copy replica 0, fold the other
  // replicas in, decode the x^2 cover.  The replicas are quiescent (the
  // checkpoint flushed the engine) until the next Submit.
  void Answer(const std::vector<OnePassHeavyHitter>& replicas, uint64_t q0,
              Tally* t) const {
    const OnePassHeavyHitter view = [&] {
      obs::TraceSpan span("topk/query_merge", "engine");
      OnePassHeavyHitter merged = replicas[0];
      for (size_t s = 1; s < replicas.size(); ++s) {
        merged.MergeFrom(replicas[s]);
      }
      return merged;
    }();
    const uint64_t k0 = NowNs();
    t->merge_ns += k0 - q0;
    ++t->merges;
    obs::TraceSpan span("topk/cover", "core");
    KeepAlive(view.Cover(*g_));
    t->cover_ns += Elapsed(k0);
    ++t->covers;
  }

  // Restores the last checkpoint into a fresh ingestor and checks that it
  // closes to exactly the state the live ingestor merged to.
  bool RestoresTo(const OnePassHeavyHitter& merged) const {
    CheckpointImage image;
    if (!LoadCheckpoint(checkpoints_->current(), &image).ok()) return false;
    ShardedIngestor<OnePassHeavyHitter> fresh(
        EngineOptions(), [this](size_t) { return MakeSketch(); });
    fresh.Open();
    if (!RestoreIngestor(image, &fresh).ok()) {
      fresh.Drain();
      return false;
    }
    return image.cursor == stream_.length() &&
           SerializeSketch(fresh.Close()) == SerializeSketch(merged);
  }

  std::string dir_;
  std::unique_ptr<SaveSlot> checkpoints_;
  Stream stream_{kDomain};
  std::optional<Truth> truth_;
  const GFunctionPtr g_ = MakePower(2.0);
};

}  // namespace

void Tally::AddCycle(uint64_t ns, uint64_t n) {
  cycle_ms.push_back(static_cast<double>(ns) / 1e6);
  cycle_updates.push_back(n);
  updates += n;
}

void Tally::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void Tally::AddEngine(const IngestStats& stats, uint64_t expected,
                      const EngineError& error) {
  ++engines;
  producer_stalls += stats.producer_stalls;
  producer_stall_ns += stats.producer_stall_ns;
  for (const uint64_t hw : stats.shard_ring_highwater) {
    ring_highwater = std::max(ring_highwater, hw);
  }
  shard_updates.resize(stats.shard_updates.size(), 0);
  for (size_t s = 0; s < stats.shard_updates.size(); ++s) {
    shard_updates[s] += stats.shard_updates[s];
  }
  updates_shed += stats.updates_shed;
  chunks += stats.chunks_committed;
  // Every update submitted is an attempt; one not applied is a failure.
  attempted += expected;
  failed += expected - std::min(expected, stats.updates_applied);
  Check(error.ok(), std::string("engine error: ") +
                        EngineErrorCodeName(error.code) + " " + error.detail);
  Check(stats.updates_shed == 0, "engine shed updates under kBlock");
  Check(stats.updates_submitted == expected &&
            stats.updates_applied == expected,
        "engine applied != submitted");
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "firehose") return std::make_unique<Firehose>();
  if (name == "gsum_replay") return std::make_unique<GsumReplay>();
  if (name == "durable_topk") return std::make_unique<DurableTopK>();
  return nullptr;
}

Stream MakeZipfStream(size_t updates, uint64_t seed) {
  std::vector<double> cdf(kItems);
  double total = 0.0;
  for (size_t r = 0; r < kItems; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipf);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  Rng rng(seed);
  Stream stream(kDomain);
  stream.Reserve(updates);
  for (size_t i = 0; i < updates; ++i) {
    const double u = rng.UniformDouble();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const ItemId item =
        (static_cast<ItemId>(rank) * 0x9e3779b97f4a7c15ULL) % kDomain;
    int64_t delta = 1;
    if (rng.Bernoulli(0.05)) {
      delta = rng.UniformInt(1, 3) * (rng.Bernoulli(0.5) ? 1 : -1);
    }
    stream.Append(item, delta);
  }
  return stream;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
}  // namespace gstream
