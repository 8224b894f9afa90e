// Seeded chaos harness for the ingest engine: the executable half of the
// robustness contract (docs/robustness.md; the in-tree half is
// tests/engine/fault_injection_test.cc).
//
// For each seed in [--base-seed, --base-seed + --seeds), a fault schedule
// is derived deterministically from the seed -- a ring-full storm rate, a
// slow-consumer shard with injected sink stalls, and (on a third of seeds)
// one injected sink exception -- armed on the process-wide fault registry,
// and driven through a multi-producer engine under --policy.  Per seed the
// harness asserts, and exits nonzero on any violation:
//
//   * the run terminates (a hang is caught by CI's timeout, not excused);
//   * conservation, exactly:  shard_updates[s] ==
//     shard_updates_applied[s] + shard_updates_shed[s] per shard, and
//     updates_submitted == updates_applied + updates_shed in total;
//   * the accounting is coherent: the stall count and the stall time
//     agree on whether any producer stalled, and every shard's ring
//     high-water is within the ring capacity;
//   * under --policy=block with no engine error and nothing shed, the
//     merged sketch is BIT-EXACT with a sequential pass (faults slow the
//     engine, they must not corrupt it);
//   * otherwise a precise degradation reason exists: a named EngineError
//     (worker-stalled / sink-exception) or a shed-capable policy's
//     counters -- never silent loss.
//
// `--policy=block|deadline|shed-incoming` selects the overload
// policy.  `--list-sites` dumps the
// enumerable fault-site catalog after one engine construction and exits --
// the discovery path a schedule author starts from.
//
// Built with GSTREAM_FAULTS=OFF the registry is a stub (nothing ever
// fires); the harness still runs and still asserts conservation and
// bit-exactness -- it just degenerates to a concurrency soak, so the flag
// is reported in the output.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/ingest_engine.h"
#include "engine/sharded_ingestor.h"
#include "persist/sketch_io.h"
#include "sketch/count_sketch.h"
#include "sketch/linear_sketch.h"
#include "stream/generators.h"
#include "util/fault.h"
#include "util/random.h"
#include "tool_common.h"

namespace gstream {
namespace {

constexpr uint64_t kSketchSeed = 0x5eed;

struct Flags {
  uint64_t base_seed = 1;
  uint64_t seeds = 32;
  OverloadPolicy policy = OverloadPolicy::kBlock;
  uint64_t stream_seed = 17;
  size_t shards = 3;
  size_t producers = 3;
  bool list_sites = false;
  bool verbose = false;
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (ParseFlag(a, "--base-seed", &v)) f.base_seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--seeds", &v)) f.seeds = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--stream-seed", &v)) f.stream_seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--shards", &v)) f.shards = std::strtoull(v.c_str(), nullptr, 10);
    else if (ParseFlag(a, "--producers", &v)) f.producers = std::strtoull(v.c_str(), nullptr, 10);
    else if (std::strcmp(a, "--list-sites") == 0) f.list_sites = true;
    else if (std::strcmp(a, "--verbose") == 0) f.verbose = true;
    else if (ParseFlag(a, "--policy", &v)) {
      // Spellings match OverloadPolicyName().
      if (v == "block") f.policy = OverloadPolicy::kBlock;
      else if (v == "deadline") f.policy = OverloadPolicy::kDeadline;
      else if (v == "shed-incoming") f.policy = OverloadPolicy::kShedIncoming;
      else { std::fprintf(stderr, "chaos_ingest: unknown --policy=%s\n", v.c_str()); std::exit(2); }
    } else {
      std::fprintf(stderr, "chaos_ingest: unknown flag %s\n", a);
      std::exit(2);
    }
  }
  return f;
}

CountSketch MakeReplica() {
  Rng rng(kSketchSeed);
  return CountSketch(CountSketchOptions{5, 512}, rng);
}

int ListSites(const Flags& f) {
  // Construct one engine so every engine site registers, plus touch the
  // stream_io and atomic-write sites the same way the library does, then
  // dump the catalog.
  std::vector<BatchSink> sinks;
  for (size_t s = 0; s < f.shards; ++s) {
    sinks.push_back([](const Update*, size_t) {});
  }
  IngestEngineOptions options;
  options.shards = f.shards;
  options.max_producers = f.producers;
  IngestEngine engine(options, std::move(sinks));
  engine.Close();
  fault::Registry::Get().GetPoint("stream_io/open_error");
  fault::Registry::Get().GetPoint("stream_io/read_error");
  fault::Registry::Get().GetPoint("stream_io/write_error");
  for (const char* site : kAtomicWriteSites) {
    fault::Registry::Get().GetPoint(site);
  }
  std::printf("fault sites (GSTREAM_FAULTS=%s):\n",
              fault::kEnabled ? "on" : "off");
  for (const fault::FaultSiteInfo& site : fault::Registry::Get().Sites()) {
    std::printf("  %-40s armed=%d p=%.4f param=%" PRIu64
                " evals=%" PRIu64 " fires=%" PRIu64 "\n",
                site.name.c_str(), site.armed ? 1 : 0, site.probability,
                site.param, site.evaluations, site.fires);
  }
  return 0;
}

// Derives and arms the seed's schedule, returns a human-readable summary.
std::string ArmSchedule(uint64_t seed, size_t shards) {
  uint64_t state = seed;
  const double stall_p = 0.002 + 0.008 * (SplitMix64(state) % 100) / 100.0;
  const double storm_p = 0.001 + 0.004 * (SplitMix64(state) % 100) / 100.0;
  const bool inject_throw = SplitMix64(state) % 3 == 0;
  const size_t slow_shard = SplitMix64(state) % shards;
  const size_t throw_shard = SplitMix64(state) % shards;
  std::vector<fault::FaultSpec> specs = {
      {"engine/ring_full", storm_p, /*param=*/100'000, 0},
      {"engine/shard/" + std::to_string(slow_shard) + "/sink_stall", stall_p,
       /*param=*/200'000, 0},
  };
  if (inject_throw) {
    specs.push_back({"engine/shard/" + std::to_string(throw_shard) +
                         "/sink_throw",
                     0.05, 0, /*max_fires=*/1});
  }
  fault::Registry::Get().Arm(seed, specs);
  std::string summary = "stall(shard " + std::to_string(slow_shard) + ")";
  if (inject_throw) {
    summary += "+throw(shard " + std::to_string(throw_shard) + ")";
  }
  return summary;
}

// One seeded chaos run.  Returns true if every assertion held.
bool RunSeed(uint64_t seed, const Flags& f, const Stream& stream,
             const CountSketch& sequential) {
  const std::string schedule = ArmSchedule(seed, f.shards);

  IngestEngineOptions options;
  options.shards = f.shards;
  options.ring_chunks = 4;
  options.chunk_updates = 64;
  options.max_producers = f.producers;
  options.overload = f.policy;
  options.stall_budget_ns = 500'000;        // 0.5 ms
  options.watchdog_ns = 200'000'000;        // 200 ms >> any injected stall
  ShardedIngestor<CountSketch> ingest(options,
                                      [](size_t) { return MakeReplica(); });
  ingest.Open(f.shards);

  const auto& ups = stream.updates();
  std::vector<std::thread> threads;
  for (size_t p = 0; p < f.producers; ++p) {
    const size_t begin = p * ups.size() / f.producers;
    const size_t end = (p + 1) * ups.size() / f.producers;
    threads.emplace_back([&ingest, &ups, begin, end] {
      ProducerHandle* handle = ingest.AddProducer();
      size_t consumed = begin;
      while (consumed < end) {
        const size_t n = std::min<size_t>(97, end - consumed);
        const SubmitResult r = handle->Submit(ups.data() + consumed, n);
        // kDeadline tails are the caller's: this caller drops them (they
        // are deliberately absent from updates_submitted).
        (void)r;
        consumed += n;
      }
      handle->Close();
    });
  }
  for (std::thread& t : threads) t.join();
  const EngineError error = ingest.Drain();
  fault::Registry::Get().Disarm();

  bool ok = true;
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "chaos_ingest: seed %" PRIu64 " VIOLATION: %s\n",
                 seed, what.c_str());
    ok = false;
  };

  // Conservation, exact, per shard and in total.
  const IngestStats stats = ingest.stats();
  uint64_t routed = 0;
  for (size_t s = 0; s < f.shards; ++s) {
    if (stats.shard_updates[s] !=
        stats.shard_updates_applied[s] + stats.shard_updates_shed[s]) {
      fail("shard " + std::to_string(s) + " conservation: routed " +
           std::to_string(stats.shard_updates[s]) + " != applied " +
           std::to_string(stats.shard_updates_applied[s]) + " + shed " +
           std::to_string(stats.shard_updates_shed[s]));
    }
    routed += stats.shard_updates[s];
  }
  if (stats.updates_submitted != stats.updates_applied + stats.updates_shed ||
      routed != stats.updates_submitted) {
    fail("total conservation: submitted " +
         std::to_string(stats.updates_submitted) + ", routed " +
         std::to_string(routed) + ", applied " +
         std::to_string(stats.updates_applied) + ", shed " +
         std::to_string(stats.updates_shed));
  }

  // Accounting coherence.
  if ((stats.producer_stalls > 0) != (stats.producer_stall_ns > 0)) {
    fail("stall count " + std::to_string(stats.producer_stalls) +
         " and stall time " + std::to_string(stats.producer_stall_ns) +
         " ns disagree");
  }
  for (size_t s = 0; s < f.shards; ++s) {
    if (stats.shard_ring_highwater[s] > options.ring_chunks) {
      fail("shard " + std::to_string(s) + " ring high-water " +
           std::to_string(stats.shard_ring_highwater[s]) +
           " exceeds capacity " + std::to_string(options.ring_chunks));
    }
  }

  std::string verdict;
  if (f.policy == OverloadPolicy::kBlock && error.ok() &&
      stats.updates_shed == 0) {
    // Lossless branch: bit-exact with sequential, injected faults or not.
    if (stats.updates_submitted != stream.length()) {
      fail("lossless run consumed " +
           std::to_string(stats.updates_submitted) + " of " +
           std::to_string(stream.length()) + " updates");
    }
    CountSketch merged = MakeReplica();
    for (const CountSketch& replica : ingest.replicas()) {
      merged.MergeFrom(replica);
    }
    if (merged.counters() != sequential.counters()) {
      fail("merged sketch diverged from sequential (silent corruption)");
    }
    verdict = "bit-exact";
  } else {
    // Degraded branch: a precise reason must exist.
    if (!error.ok()) {
      verdict = std::string("degraded: ") + EngineErrorCodeName(error.code) +
                " (shard " + std::to_string(error.shard) + ")";
    } else if (stats.updates_shed > 0 || stats.deadline_timeouts > 0) {
      verdict = std::string("degraded: policy ") +
                OverloadPolicyName(f.policy) + " shed " +
                std::to_string(stats.updates_shed) + ", timeouts " +
                std::to_string(stats.deadline_timeouts);
    } else if (f.policy != OverloadPolicy::kBlock) {
      // A bounded policy that never had to bound anything: clean run.
      verdict = std::string("clean under ") + OverloadPolicyName(f.policy);
    } else {
      fail("degraded without a nameable reason");
      verdict = "UNEXPLAINED";
    }
  }

  if (f.verbose || !ok) {
    std::printf("seed %-4" PRIu64 " [%s, %s] submitted=%" PRIu64
                " applied=%" PRIu64 " shed=%" PRIu64 " timeouts=%" PRIu64
                " -> %s\n",
                seed, OverloadPolicyName(f.policy), schedule.c_str(),
                stats.updates_submitted, stats.updates_applied,
                stats.updates_shed, stats.deadline_timeouts,
                verdict.c_str());
  }
  return ok;
}

int Run(const Flags& f) {
  if (f.list_sites) return ListSites(f);

  Rng rng(f.stream_seed);
  StreamShapeOptions shape;
  shape.churn_pairs = 1500;
  const Stream stream =
      MakeZipfWorkload(1 << 14, 2000, 1.1, 20000, shape, rng).stream;
  CountSketch sequential = MakeReplica();
  ProcessStream(sequential, stream);

  size_t violations = 0;
  for (uint64_t seed = f.base_seed; seed < f.base_seed + f.seeds; ++seed) {
    if (!RunSeed(seed, f, stream, sequential)) ++violations;
  }
  std::printf("chaos_ingest: %" PRIu64 " seeds, policy %s, faults %s, "
              "%zu violation(s)\n",
              f.seeds, OverloadPolicyName(f.policy),
              fault::kEnabled ? "on" : "off", violations);
  return violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace gstream

int main(int argc, char** argv) {
  const gstream::Flags flags = gstream::ParseFlags(argc, argv);
  return gstream::Run(flags);
}
