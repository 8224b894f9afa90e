// Engine-wide fault injection: the seeded fault-point framework
// (util/fault.h) and every degradation path it drives.  The invariants
// under test are the robustness contract (docs/robustness.md):
//
//   1. Determinism -- a fault schedule re-armed with the same seed makes
//      the same per-site fire sequence, so every failing chaos run
//      reproduces.
//   2. Conservation -- at any quiescent point,
//      shard_updates[s] == shard_updates_applied[s] + shard_updates_shed[s]
//      exactly, per shard and in total: data is applied or accounted shed,
//      never silently lost.
//   3. Named degradation -- a sink exception or a watchdog-detected stall
//      surfaces as a typed EngineError from Flush()/Close(), never a hang
//      and never silent corruption; under kBlock with no error and no
//      sheds the merged sketch stays bit-exact with sequential, faults or
//      not.
//
// Every test arms the process-wide registry and disarms in TearDown, so
// ordering across tests cannot leak schedules.  Under GSTREAM_FAULTS=OFF
// the framework is compiled out and these tests skip (the stub ShouldFire
// is constant false -- there is nothing to inject).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "engine/ingest_engine.h"
#include "engine/sharded_ingestor.h"
#include "sketch/count_sketch.h"
#include "sketch/linear_sketch.h"
#include "stream/generators.h"
#include "stream/stream_io.h"
#include "util/fault.h"
#include "util/random.h"

namespace gstream {
namespace {

constexpr uint64_t kSeed = 0x5eed;

Stream MakeTurnstileStream(uint64_t seed, size_t churn_pairs = 700) {
  Rng rng(seed);
  StreamShapeOptions shape;
  shape.churn_pairs = churn_pairs;
  return MakeZipfWorkload(1 << 12, 900, 1.1, 4000, shape, rng).stream;
}

CountSketch MakeReplica() {
  Rng rng(kSeed);
  return CountSketch(CountSketchOptions{5, 256}, rng);
}

// Asserts the exact conservation invariant on a closed/quiescent engine's
// aggregated stats, per shard and in total.
void ExpectConservation(const IngestStats& stats) {
  uint64_t routed = 0;
  for (size_t s = 0; s < stats.shard_updates.size(); ++s) {
    EXPECT_EQ(stats.shard_updates[s],
              stats.shard_updates_applied[s] + stats.shard_updates_shed[s])
        << "shard " << s;
    routed += stats.shard_updates[s];
  }
  EXPECT_EQ(stats.updates_submitted, stats.updates_applied + stats.updates_shed);
  EXPECT_EQ(routed, stats.updates_applied + stats.updates_shed);
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::kEnabled) {
      GTEST_SKIP() << "built with GSTREAM_FAULTS=OFF";
    }
  }
  void TearDown() override { fault::Registry::Get().Disarm(); }
};

// ---------------------------------------------------------------------------
// The framework itself.
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, SameSeedReproducesTheFireSequence) {
  fault::Registry& registry = fault::Registry::Get();
  fault::FaultPoint* point = registry.GetPoint("test/determinism");
  const auto run_schedule = [&](uint64_t seed) {
    registry.Arm(seed, {{"test/determinism", 0.25, 0, 0}});
    std::vector<bool> decisions;
    decisions.reserve(512);
    for (int i = 0; i < 512; ++i) decisions.push_back(point->ShouldFire());
    return decisions;
  };
  const std::vector<bool> first = run_schedule(7);
  // Arming resets the counter, so read it before the next run.
  const uint64_t first_counted = point->fires();
  const std::vector<bool> again = run_schedule(7);
  const std::vector<bool> other = run_schedule(8);
  EXPECT_EQ(first, again) << "same seed must reproduce decision-for-decision";
  EXPECT_NE(first, other) << "different seeds should diverge (p < 1e-60)";
  // p = 0.25 over 512 draws: the sequence fires some but not all.
  const size_t fires = std::count(first.begin(), first.end(), true);
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 512u);
  EXPECT_EQ(fires, first_counted);
}

TEST_F(FaultInjectionTest, ThreadInterleavingCannotChangeTheDecisionMultiset) {
  // Decision k depends only on (seed, site, k): racing threads partition
  // the evaluation indices arbitrarily, but the total number of fires over
  // the first N evaluations is a pure function of the schedule, so a
  // single-threaded pass over [0, 4000) and 4 racing threads covering the
  // same 4000 indices must agree exactly.
  fault::Registry& registry = fault::Registry::Get();
  fault::FaultPoint* point = registry.GetPoint("test/interleave");
  const auto total_fires = [&](size_t threads) {
    registry.Arm(11, {{"test/interleave", 0.5, 0, 0}});
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([point] {
        for (int i = 0; i < 1000; ++i) point->ShouldFire();
      });
    }
    for (std::thread& t : pool) t.join();
    return point->fires();
  };
  // 1 thread x 4000 = 4 threads x 1000: same index range, same fire total.
  registry.Arm(11, {{"test/interleave", 0.5, 0, 0}});
  uint64_t sequential_fires = 0;
  for (int i = 0; i < 4000; ++i) {
    sequential_fires += point->ShouldFire() ? 1 : 0;
  }
  const uint64_t concurrent_fires = total_fires(4);
  EXPECT_EQ(sequential_fires, concurrent_fires);
  EXPECT_EQ(point->evaluations(), 4000u);
}

TEST_F(FaultInjectionTest, MaxFiresCapsInjectionsExactly) {
  fault::Registry& registry = fault::Registry::Get();
  fault::FaultPoint* point = registry.GetPoint("test/capped");
  registry.Arm(3, {{"test/capped", 1.0, 0, /*max_fires=*/3}});
  int fired = 0;
  for (int i = 0; i < 100; ++i) fired += point->ShouldFire() ? 1 : 0;
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(point->fires(), 3u) << "fires() reports actual injections only";
  EXPECT_EQ(point->evaluations(), 100u);
}

TEST_F(FaultInjectionTest, DisarmedSitesNeverFireAndArmReplacesTheSchedule) {
  fault::Registry& registry = fault::Registry::Get();
  fault::FaultPoint* a = registry.GetPoint("test/site_a");
  fault::FaultPoint* b = registry.GetPoint("test/site_b");
  registry.Arm(5, {{"test/site_a", 1.0, 0, 0}});
  EXPECT_TRUE(a->ShouldFire());
  EXPECT_FALSE(b->ShouldFire());
  // Arming a new schedule disarms everything not named in it.
  registry.Arm(5, {{"test/site_b", 1.0, 0, 0}});
  EXPECT_FALSE(a->ShouldFire());
  EXPECT_TRUE(b->ShouldFire());
  registry.Disarm();
  EXPECT_FALSE(a->ShouldFire());
  EXPECT_FALSE(b->ShouldFire());
}

TEST_F(FaultInjectionTest, EngineFaultSitesAreEnumerable) {
  // Constructing an engine registers every injectable site, armed or not:
  // the chaos harness discovers its levers from Sites(), never from a
  // hard-coded list that can drift from the code.
  std::vector<BatchSink> sinks;
  for (int s = 0; s < 2; ++s) sinks.push_back([](const Update*, size_t) {});
  IngestEngineOptions options;
  options.shards = 2;
  IngestEngine engine(options, std::move(sinks));
  engine.Close();

  std::vector<std::string> names;
  for (const fault::FaultSiteInfo& site : fault::Registry::Get().Sites()) {
    names.push_back(site.name);
  }
  for (const char* expected :
       {"engine/ring_full", "engine/shard/0/sink_stall",
        "engine/shard/0/sink_throw", "engine/shard/1/sink_stall",
        "engine/shard/1/sink_throw"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing site " << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

// ---------------------------------------------------------------------------
// Injected sink failures through the engine.
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, SinkExceptionPoisonsShardAndNamesTheError) {
  const Stream stream = MakeTurnstileStream(401);
  fault::Registry::Get().Arm(
      21, {{"engine/shard/0/sink_throw", 1.0, 0, /*max_fires=*/1}});

  IngestEngineOptions options;
  ShardedIngestor<CountSketch> ingest(options,
                                      [](size_t) { return MakeReplica(); });
  ingest.Open(2);
  const SubmitResult result = ingest.SubmitStream(stream);
  EXPECT_TRUE(result.ok()) << "kBlock never times out";
  EXPECT_EQ(result.accepted, stream.length());
  const EngineError error = ingest.Drain();

  ASSERT_FALSE(error.ok()) << "the injected throw must surface";
  EXPECT_EQ(error.code, EngineErrorCode::kSinkException);
  EXPECT_EQ(error.shard, 0u);
  EXPECT_NE(error.detail.find("injected fault engine/shard/0/sink_throw"),
            std::string::npos)
      << error.detail;
  EXPECT_STREQ(EngineErrorCodeName(error.code), "sink-exception");

  // Not a hang, not silent corruption: everything routed to the poisoned
  // shard after the throw is accounted shed, shard 1 applied everything.
  const IngestStats& stats = ingest.stats();
  ExpectConservation(stats);
  EXPECT_GT(stats.shard_updates_shed[0], 0u);
  EXPECT_EQ(stats.shard_updates_shed[1], 0u);
  EXPECT_EQ(stats.shard_updates_applied[1], stats.shard_updates[1]);
  EXPECT_GT(stats.updates_shed, 0u);
}

TEST_F(FaultInjectionTest, WatchdogConvertsSilentStallIntoNamedError) {
  // One injected 250 ms sink stall against a 25 ms watchdog deadline and a
  // 4-chunk ring: producers keep committing, the worker makes no progress,
  // and what used to be an indefinite hang must become kWorkerStalled.
  const Stream stream = MakeTurnstileStream(402, 900);
  fault::Registry::Get().Arm(
      22, {{"engine/shard/0/sink_stall", 1.0, /*param=*/250'000'000,
            /*max_fires=*/1}});

  IngestEngineOptions options;
  options.ring_chunks = 4;
  options.chunk_updates = 64;
  options.watchdog_ns = 25'000'000;  // 25 ms
  ShardedIngestor<CountSketch> ingest(options,
                                      [](size_t) { return MakeReplica(); });
  ingest.Open(2);
  ingest.SubmitStream(stream);
  const EngineError error = ingest.Drain();

  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.code, EngineErrorCode::kWorkerStalled);
  EXPECT_EQ(error.shard, 0u);
  EXPECT_NE(error.detail.find("advanced no chunk"), std::string::npos)
      << error.detail;
  EXPECT_NE(error.detail.find("watchdog_ns="), std::string::npos)
      << error.detail;
  ExpectConservation(ingest.stats());
  // The stalled shard was poisoned: whatever was queued behind the stall
  // drained as sheds instead of wedging the close handshake.
  EXPECT_GT(ingest.stats().shard_updates_shed[0], 0u);
}

TEST_F(FaultInjectionTest, BlockPolicyStaysBitExactUnderLosslessFaults) {
  // Ring-full storms and sink stalls slow the engine down but drop
  // nothing; under kBlock (no watchdog) the merged sketch must remain
  // bit-exact with sequential even while every lossless fault fires.
  const Stream stream = MakeTurnstileStream(403);
  CountSketch sequential = MakeReplica();
  ProcessStream(sequential, stream);

  fault::Registry::Get().Arm(
      23, {{"engine/ring_full", 0.01, /*param=*/200'000, 0},
           {"engine/shard/0/sink_stall", 0.02, /*param=*/100'000, 0},
           {"engine/shard/1/sink_stall", 0.02, /*param=*/100'000, 0}});

  IngestEngineOptions options;
  options.ring_chunks = 4;
  ShardedIngestor<CountSketch> ingest(options,
                                      [](size_t) { return MakeReplica(); });
  ingest.Open(2);
  const SubmitResult result = ingest.SubmitStream(stream);
  EXPECT_EQ(result.accepted, stream.length());
  EXPECT_EQ(result.shed, 0u);
  CountSketch& merged = ingest.Close();
  EXPECT_TRUE(ingest.error().ok());
  EXPECT_EQ(merged.counters(), sequential.counters());
  const IngestStats& stats = ingest.stats();
  ExpectConservation(stats);
  EXPECT_EQ(stats.updates_shed, 0u);
  EXPECT_EQ(stats.updates_applied, stream.length());
}

// ---------------------------------------------------------------------------
// Overload policies (driven by a real slow consumer, no faults needed
// beyond SetUp's skip guard).
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, DeadlinePolicyTimesOutInsteadOfSpinningForever) {
  // A sink stalled far past the budget with a minimal ring: Submit must
  // return timed_out with the tail unconsumed, and the unconsumed tail
  // must not appear in updates_submitted.
  fault::Registry::Get().Arm(
      24, {{"engine/shard/0/sink_stall", 1.0, /*param=*/200'000'000,
            /*max_fires=*/1}});
  std::vector<BatchSink> sinks;
  sinks.push_back([](const Update*, size_t) {});
  IngestEngineOptions options;
  options.shards = 1;
  options.ring_chunks = 2;
  options.chunk_updates = 32;
  options.overload = OverloadPolicy::kDeadline;
  options.stall_budget_ns = 2'000'000;  // 2 ms budget vs a 200 ms stall
  IngestEngine engine(options, std::move(sinks));

  const Stream stream = MakeTurnstileStream(404);
  const SubmitResult result = engine.SubmitStream(stream);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.timed_out);
  EXPECT_LT(result.accepted, stream.length());
  EXPECT_EQ(result.shed, 0u) << "kDeadline never sheds";
  const EngineError error = engine.Close();
  EXPECT_TRUE(error.ok()) << "a timeout is the caller's signal, not an "
                             "engine failure";
  const IngestStats& stats = engine.stats();
  EXPECT_EQ(stats.updates_submitted, result.accepted);
  EXPECT_GE(stats.deadline_timeouts, 1u);
  ExpectConservation(stats);
  EXPECT_EQ(stats.updates_applied, result.accepted);
}

TEST_F(FaultInjectionTest, ShedIncomingAccountsEveryDrop) {
  // Slow consumer + tiny ring + never-wait policy: a large prefix is shed,
  // and the conservation identity must close exactly -- routed equals
  // applied plus shed, per shard and in total.
  std::vector<BatchSink> sinks;
  sinks.push_back([](const Update*, size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  IngestEngineOptions options;
  options.shards = 1;
  options.ring_chunks = 2;
  options.chunk_updates = 32;
  options.overload = OverloadPolicy::kShedIncoming;
  IngestEngine engine(options, std::move(sinks));

  const Stream stream = MakeTurnstileStream(405);
  const SubmitResult result = engine.SubmitStream(stream);
  EXPECT_TRUE(result.ok()) << "shed policies consume the whole batch";
  EXPECT_EQ(result.accepted, stream.length());
  EXPECT_GT(result.shed, 0u) << "a 200us/chunk sink on a 2-chunk ring "
                                "cannot keep up with a tight feed loop";
  EXPECT_TRUE(engine.Close().ok());
  const IngestStats& stats = engine.stats();
  EXPECT_EQ(stats.updates_submitted, stream.length());
  EXPECT_EQ(stats.updates_shed, result.shed)
      << "kShedIncoming sheds synchronously only";
  ExpectConservation(stats);
}

TEST_F(FaultInjectionTest, BlockPolicyKeepsSubmitResultTrivial) {
  // The default policy's SubmitResult is the degenerate all-accepted one:
  // callers ignoring it (all pre-existing code) lose nothing.
  std::vector<BatchSink> sinks;
  sinks.push_back([](const Update*, size_t) {});
  IngestEngineOptions options;
  options.shards = 1;
  IngestEngine engine(options, std::move(sinks));
  const Stream stream = MakeTurnstileStream(407);
  const SubmitResult result = engine.SubmitStream(stream);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.accepted, stream.length());
  EXPECT_EQ(result.shed, 0u);
  EXPECT_FALSE(result.timed_out);
  EXPECT_TRUE(engine.Close().ok());
  EXPECT_EQ(engine.stats().updates_shed, 0u);
  EXPECT_EQ(engine.stats().deadline_timeouts, 0u);
}

// ---------------------------------------------------------------------------
// Injected stream_io errors (the satellite's distinguishability pin).
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, InjectedStreamIoErrorsAreDistinguishableFromReal) {
  Stream s(32);
  s.Append(7, 42);
  const std::string path =
      ::testing::TempDir() + "/fault_injection_stream.txt";
  ASSERT_TRUE(SaveStream(s, path));

  // Injected open error on a file that exists: kIoError with the uniform
  // injected-fault message, not an errno shape.
  fault::Registry::Get().Arm(25, {{"stream_io/open_error", 1.0, 0, 0}});
  LoadStatus status;
  EXPECT_FALSE(LoadStream(path, &status).has_value());
  EXPECT_EQ(status.error, LoadError::kIoError);
  EXPECT_NE(status.message.find("injected fault stream_io/open_error"),
            std::string::npos)
      << status.message;
  EXPECT_EQ(status.message.find("errno"), std::string::npos)
      << status.message;

  // Injected read error: open succeeds, the read path reports.
  fault::Registry::Get().Arm(25, {{"stream_io/read_error", 1.0, 0, 0}});
  EXPECT_FALSE(LoadStream(path, &status).has_value());
  EXPECT_EQ(status.error, LoadError::kIoError);
  EXPECT_NE(status.message.find("injected fault stream_io/read_error"),
            std::string::npos)
      << status.message;

  // Injected write error: SaveStream fails without touching the file.
  fault::Registry::Get().Arm(25, {{"stream_io/write_error", 1.0, 0, 0}});
  EXPECT_FALSE(SaveStream(s, path));

  // Disarmed, everything works again.
  fault::Registry::Get().Disarm();
  EXPECT_TRUE(LoadStream(path, &status).has_value());
  EXPECT_TRUE(status.ok());
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, InjectedReadErrorMidFileNeverYieldsAPartialStream) {
  // A file of three read windows: LoadStream asks the read site before each
  // of its four read() calls (the last one sees end of file), so at p = 0.5
  // some seeds load the whole file and others fail after parsing a window.
  const std::string path =
      ::testing::TempDir() + "/fault_injection_windows.txt";
  Stream s(1 << 20);
  uint64_t state = 0x5eed;
  while (s.length() * 9 < 5 * kStreamWindowBytes / 2) {
    s.Append(100000 + SplitMix64(state) % 900000, 1);  // "dddddd 1\n"
  }
  ASSERT_TRUE(SaveStream(s, path));
  fault::FaultPoint* const site =
      fault::Registry::Get().GetPoint("stream_io/read_error");
  int loaded = 0;
  int failed_after_a_window = 0;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE(seed);
    fault::Registry::Get().Arm(seed, {{"stream_io/read_error", 0.5, 0, 0}});
    LoadStatus status;
    const std::optional<Stream> stream = LoadStream(path, &status);
    if (stream.has_value()) {
      ++loaded;
      EXPECT_TRUE(status.ok());
      EXPECT_EQ(site->fires(), 0u);
      ASSERT_EQ(stream->length(), s.length());
      for (size_t i = 0; i < s.length(); ++i) {
        ASSERT_EQ(stream->updates()[i].item, s.updates()[i].item) << i;
      }
    } else {
      EXPECT_EQ(status.error, LoadError::kIoError);
      EXPECT_EQ(status.message,
                path + ": injected fault stream_io/read_error");
      EXPECT_EQ(site->fires(), 1u);
      if (site->evaluations() >= 2) ++failed_after_a_window;
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(failed_after_a_window, 0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Seeded chaos schedules (the in-tree slice of the tools/chaos_ingest
// matrix; CI runs the full >= 32-seed sweep through the tool).
// ---------------------------------------------------------------------------

struct ChaosOutcome {
  bool bit_exact = false;
  EngineError error;
  uint64_t shed = 0;
};

// One seeded chaos run: derive a schedule from the seed, feed three
// concurrent producers through it, and assert the robustness contract.
// Returns what happened so callers can assert the matrix covered both
// branches.
ChaosOutcome RunChaosSchedule(uint64_t seed, OverloadPolicy policy,
                              const Stream& stream,
                              const CountSketch& sequential) {
  uint64_t state = seed;
  const double stall_p = 0.002 + 0.008 * (SplitMix64(state) % 100) / 100.0;
  const double storm_p = 0.001 + 0.004 * (SplitMix64(state) % 100) / 100.0;
  const bool inject_throw = SplitMix64(state) % 3 == 0;
  const size_t slow_shard = SplitMix64(state) % 2;
  std::vector<fault::FaultSpec> specs = {
      {"engine/ring_full", storm_p, /*param=*/100'000, 0},
      {"engine/shard/" + std::to_string(slow_shard) + "/sink_stall", stall_p,
       /*param=*/200'000, 0},
  };
  if (inject_throw) {
    specs.push_back({"engine/shard/" + std::to_string(1 - slow_shard) +
                         "/sink_throw",
                     0.05, 0, /*max_fires=*/1});
  }
  fault::Registry::Get().Arm(seed, specs);

  IngestEngineOptions options;
  options.ring_chunks = 4;
  options.chunk_updates = 64;
  options.max_producers = 3;
  options.overload = policy;
  options.stall_budget_ns = 500'000;
  options.watchdog_ns = 100'000'000;  // far above any injected stall
  ShardedIngestor<CountSketch> ingest(options,
                                      [](size_t) { return MakeReplica(); });
  ingest.Open(2);

  const auto& ups = stream.updates();
  std::vector<std::thread> threads;
  for (size_t p = 0; p < 3; ++p) {
    const size_t begin = p * ups.size() / 3;
    const size_t end = (p + 1) * ups.size() / 3;
    threads.emplace_back([&ingest, &ups, begin, end] {
      ProducerHandle* handle = ingest.AddProducer();
      size_t consumed = begin;
      while (consumed < end) {
        const size_t n = std::min<size_t>(97, end - consumed);
        const SubmitResult r = handle->Submit(ups.data() + consumed, n);
        // kDeadline: the unconsumed tail is the caller's; this caller
        // drops it and moves on (counted nowhere, which is exactly why
        // the contract excludes it from updates_submitted).
        (void)r;
        consumed += n;
      }
      handle->Close();
    });
  }
  for (std::thread& t : threads) t.join();
  const EngineError error = ingest.Drain();
  fault::Registry::Get().Disarm();

  // Never a hang (we got here), never silent corruption:
  const IngestStats& stats = ingest.stats();
  ExpectConservation(stats);

  ChaosOutcome outcome;
  outcome.error = error;
  outcome.shed = stats.updates_shed;
  if (policy == OverloadPolicy::kBlock && error.ok() &&
      stats.updates_shed == 0) {
    // Lossless branch: bit-exact with sequential, faults notwithstanding.
    EXPECT_EQ(stats.updates_submitted, stream.length()) << "seed " << seed;
    CountSketch merged = MakeReplica();
    for (const CountSketch& replica : ingest.replicas()) {
      merged.MergeFrom(replica);
    }
    outcome.bit_exact = merged.counters() == sequential.counters();
    EXPECT_TRUE(outcome.bit_exact) << "seed " << seed;
  } else {
    // Degraded branch: a precise reason must exist -- a named engine
    // error, or a shed/timeout under a policy that allows it.
    const bool named = !error.ok() || stats.updates_shed > 0 ||
                       stats.deadline_timeouts > 0 ||
                       policy != OverloadPolicy::kBlock;
    EXPECT_TRUE(named) << "seed " << seed << ": degraded without a reason";
  }
  return outcome;
}

TEST_F(FaultInjectionTest, SeededChaosSchedulesTerminateWithExactAccounting) {
  const Stream stream = MakeTurnstileStream(408, 900);
  CountSketch sequential = MakeReplica();
  ProcessStream(sequential, stream);

  size_t bit_exact_runs = 0;
  size_t degraded_runs = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (const OverloadPolicy policy :
         {OverloadPolicy::kBlock, OverloadPolicy::kShedIncoming}) {
      const ChaosOutcome outcome =
          RunChaosSchedule(seed, policy, stream, sequential);
      if (outcome.bit_exact) {
        ++bit_exact_runs;
      } else {
        ++degraded_runs;
      }
    }
  }
  // The matrix must exercise both branches of the contract: some seeds run
  // clean and pin bit-exactness, some degrade and pin the accounting.
  EXPECT_GT(bit_exact_runs, 0u);
  EXPECT_GT(degraded_runs, 0u);
}

// ---------------------------------------------------------------------------
// Guard rails.
// ---------------------------------------------------------------------------

TEST(FaultInjectionDeathTest, SnapshotUnderNonBlockPolicyChecks) {
  // Bit-exact resume is undefined for runs that may shed or time out; the
  // checkpoint path refuses rather than producing a checkpoint that lies.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        std::vector<BatchSink> sinks;
        sinks.push_back([](const Update*, size_t) {});
        IngestEngineOptions options;
        options.shards = 1;
        options.overload = OverloadPolicy::kShedIncoming;
        IngestEngine engine(options, std::move(sinks));
        engine.SnapshotProducerState();
      },
      "GSTREAM_CHECK");
}

TEST(OverloadPolicyTest, NamesAreStable) {
  // CLI/JSON surface (tools/chaos_ingest --policy=, bench ingest block).
  EXPECT_STREQ(OverloadPolicyName(OverloadPolicy::kBlock), "block");
  EXPECT_STREQ(OverloadPolicyName(OverloadPolicy::kDeadline), "deadline");
  EXPECT_STREQ(OverloadPolicyName(OverloadPolicy::kShedIncoming),
               "shed-incoming");
  EXPECT_STREQ(EngineErrorCodeName(EngineErrorCode::kNone), "none");
  EXPECT_STREQ(EngineErrorCodeName(EngineErrorCode::kWorkerStalled),
               "worker-stalled");
  EXPECT_STREQ(EngineErrorCodeName(EngineErrorCode::kSinkException),
               "sink-exception");
}

}  // namespace
}  // namespace gstream
