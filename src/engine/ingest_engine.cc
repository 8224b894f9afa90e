#include "engine/ingest_engine.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "obs/trace.h"
#include "util/logging.h"

namespace gstream {

const char* OverloadPolicyName(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock: return "block";
    case OverloadPolicy::kDeadline: return "deadline";
    case OverloadPolicy::kShedIncoming: return "shed-incoming";
  }
  return "unknown";
}

const char* EngineErrorCodeName(EngineErrorCode code) {
  switch (code) {
    case EngineErrorCode::kNone: return "none";
    case EngineErrorCode::kWorkerStalled: return "worker-stalled";
    case EngineErrorCode::kSinkException: return "sink-exception";
  }
  return "unknown";
}

std::string IngestStatsJson(const IngestStats& stats) {
  std::string json;
  const auto add = [&json](const char* name, const std::string& value) {
    json += (json.empty() ? "{\"" : ", \"") + std::string(name) + "\": ";
    json += value;
  };
  const auto array = [](const std::vector<uint64_t>& values) {
    std::string out = "[";
    for (const uint64_t v : values) {
      out += (out.size() > 1 ? ", " : "") + std::to_string(v);
    }
    return out + "]";
  };
  add("updates_submitted", std::to_string(stats.updates_submitted));
  add("updates_applied", std::to_string(stats.updates_applied));
  add("updates_shed", std::to_string(stats.updates_shed));
  add("deadline_timeouts", std::to_string(stats.deadline_timeouts));
  add("chunks_committed", std::to_string(stats.chunks_committed));
  add("producer_stalls", std::to_string(stats.producer_stalls));
  add("producer_stall_ns", std::to_string(stats.producer_stall_ns));
  add("shard_updates", array(stats.shard_updates));
  add("shard_updates_applied", array(stats.shard_updates_applied));
  add("shard_updates_shed", array(stats.shard_updates_shed));
  add("shard_ring_highwater", array(stats.shard_ring_highwater));
  return json + "}";
}

// ---------------------------------------------------------------------------
// ProducerHandle

ProducerHandle::ProducerHandle(IngestEngine* engine, size_t index)
    : engine_(engine), index_(index) {
  stats_.shard_updates.assign(engine_->shards_.size(), 0);
  stats_.shard_updates_applied.assign(engine_->shards_.size(), 0);
  stats_.shard_updates_shed.assign(engine_->shards_.size(), 0);
  stats_.shard_ring_highwater.assign(engine_->shards_.size(), 0);
}

UpdateChunk* ProducerHandle::ReserveSlot(size_t s) {
  SpscRing<UpdateChunk>& ring = engine_->shards_[s]->lanes[index_]->ring;
  // Injected ring-full storm: pretend the ring is full for param() ns,
  // driving the overload path even when the workers keep up.  Under
  // kBlock that is just a stall; under the bounded policies it exercises
  // timeouts and sheds exactly like real overload.
  uint64_t storm_until = 0;
  if (engine_->fault_ring_full_->ShouldFire()) {
    storm_until = obs::NowNs() + engine_->fault_ring_full_->param();
  }
  UpdateChunk* slot = storm_until != 0 ? nullptr : ring.TryReserve();
  if (slot != nullptr) return slot;
  const OverloadPolicy overload = engine_->options_.overload;
  if (overload == OverloadPolicy::kShedIncoming) {
    // Never waits: the caller sheds the incoming updates.
    return nullptr;
  }
  // Stall path (cold by construction -- the fast path above returned):
  // record how long the full ring blocked us, not merely that it did.
  ++stats_.producer_stalls;
  const uint64_t t0 = obs::NowNs();
  const uint64_t budget = overload == OverloadPolicy::kBlock
                              ? ~0ULL
                              : engine_->options_.stall_budget_ns;
  for (;;) {
    std::this_thread::yield();
    const uint64_t now = obs::NowNs();
    if (now >= storm_until) slot = ring.TryReserve();
    if (slot != nullptr || now - t0 >= budget) break;
  }
  const uint64_t stall_ns = obs::NowNs() - t0;
  stats_.producer_stall_ns += stall_ns;
  engine_->obs_.producer_stall_ns->Record(stall_ns);
  if (slot == nullptr && overload == OverloadPolicy::kDeadline) {
    ++stats_.deadline_timeouts;
  }
  return slot;
}

void ProducerHandle::NoteOccupancy(size_t s) {
  const uint64_t occupancy =
      engine_->shards_[s]->lanes[index_]->ring.SizeApprox();
  if (occupancy > stats_.shard_ring_highwater[s]) {
    stats_.shard_ring_highwater[s] = occupancy;
  }
}

ProducerHandle::RouteOutcome ProducerHandle::CopyChunkToShard(
    size_t s, const Update* updates, size_t n) {
  UpdateChunk* slot = ReserveSlot(s);
  if (slot == nullptr) {
    if (engine_->options_.overload == OverloadPolicy::kDeadline) {
      return RouteOutcome::kTimeout;  // chunk not consumed
    }
    stats_.shard_updates[s] += n;
    stats_.shard_updates_shed[s] += n;
    stats_.updates_shed += n;
    return RouteOutcome::kShed;
  }
  slot->n = static_cast<uint32_t>(n);
  std::memcpy(slot->updates, updates, n * sizeof(Update));
  engine_->shards_[s]->lanes[index_]->ring.Commit();
  stats_.shard_updates[s] += n;
  ++stats_.chunks_committed;
  NoteOccupancy(s);
  return RouteOutcome::kOk;
}

SubmitResult ProducerHandle::Submit(const Update* updates, size_t n) {
  GSTREAM_CHECK(!closed_.load(std::memory_order_relaxed));
  SubmitResult result;
  if (n == 0) return result;
  obs::TraceSpan span("engine/submit", "engine");
  const size_t chunk = engine_->options_.chunk_updates;
  for (size_t i = 0; i < n; i += chunk) {
    const size_t len = std::min(chunk, n - i);
    const size_t s = round_robin_next_;
    const RouteOutcome outcome = CopyChunkToShard(s, updates + i, len);
    if (outcome == RouteOutcome::kTimeout) {
      // The cursor stays on `s`: a retry re-targets the same shard,
      // preserving rotation balance.
      result.accepted = i;
      result.timed_out = true;
      stats_.updates_submitted += i;
      return result;
    }
    round_robin_next_ = (round_robin_next_ + 1) % engine_->shards_.size();
    if (outcome == RouteOutcome::kShed) result.shed += len;
  }
  result.accepted = n;
  stats_.updates_submitted += n;
  return result;
}

SubmitResult ProducerHandle::SubmitStream(const Stream& stream) {
  return Submit(stream.updates().data(), stream.length());
}

void ProducerHandle::Close() {
  if (closed_.load(std::memory_order_relaxed)) return;
  for (const auto& shard : engine_->shards_) {
    // Commit-before-done (release) pairs with the worker's acquire load:
    // the worker's post-done emptiness re-check observes the final chunks.
    shard->lanes[index_]->done.store(true, std::memory_order_release);
  }
  // Release everything above (final stats included) to whoever acquires
  // closed() -- the engine's Close() does, so stats() may fold them.
  closed_.store(true, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// IngestEngine

IngestEngine::IngestEngine(const IngestEngineOptions& options,
                           std::vector<BatchSink> sinks)
    : options_(options) {
  GSTREAM_CHECK_GE(options.shards, 1u);
  GSTREAM_CHECK_EQ(sinks.size(), options.shards);
  GSTREAM_CHECK_GE(options.chunk_updates, 1u);
  GSTREAM_CHECK_LE(options.chunk_updates, kStreamBatchSize);
  GSTREAM_CHECK_GE(options.max_producers, 1u);
  shards_.reserve(options.shards);
  // Instrument handles are fetched once here (registration is the only
  // locked path).  Counts never go through the registry: the routing hot
  // path touches only per-handle stats, and stats() folds them.
  obs::Registry& registry = obs::Registry::Get();
  obs_.engine_errors = registry.GetCounter("engine/errors");
  obs_.producer_stall_ns = registry.GetHistogram("engine/producer_stall_ns");
  obs_.flush_ns = registry.GetHistogram("engine/flush_ns");
  obs::Histogram* const batch_size =
      registry.GetHistogram("engine/batch_size");
  obs::Histogram* const sink_batch_ns =
      registry.GetHistogram("engine/sink_batch_ns");
  // Fault sites are registered at construction even when never armed, so
  // the catalog (fault::Registry::Sites) enumerates every injectable
  // failure of a live engine.
  fault::Registry& faults = fault::Registry::Get();
  fault_ring_full_ = faults.GetPoint("engine/ring_full");
  for (size_t s = 0; s < options.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(s, options.ring_chunks,
                                              options.max_producers));
    shards_.back()->sink = std::move(sinks[s]);
    shards_.back()->obs_batch_size = batch_size;
    shards_.back()->obs_sink_batch_ns = sink_batch_ns;
    const std::string prefix = "engine/shard/" + std::to_string(s) + "/";
    shards_.back()->fault_sink_stall =
        faults.GetPoint(prefix + "sink_stall");
    shards_.back()->fault_sink_throw =
        faults.GetPoint(prefix + "sink_throw");
    GSTREAM_CHECK(shards_.back()->sink != nullptr);
  }
  // The handle pool is preallocated so AddProducer() is a lock-free
  // index claim -- no list mutation races with running workers.
  producers_.reserve(options.max_producers);
  for (size_t p = 0; p < options.max_producers; ++p) {
    producers_.emplace_back(
        std::unique_ptr<ProducerHandle>(new ProducerHandle(this, p)));
  }
  // Start workers only after every shard exists; workers touch nothing but
  // their own shard.
  for (auto& shard : shards_) {
    shard->worker = std::thread(&IngestEngine::WorkerLoop, this, shard.get());
  }
  if (options.watchdog_ns > 0) {
    watchdog_ = std::thread(&IngestEngine::WatchdogLoop, this);
  }
}

IngestEngine::~IngestEngine() { Close(); }

void IngestEngine::RecordError(EngineErrorCode code, size_t shard,
                               std::string detail) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (error_.code != EngineErrorCode::kNone) return;  // first failure wins
  error_.code = code;
  error_.shard = shard;
  error_.detail = std::move(detail);
  obs_.engine_errors->Increment();
  error_flag_.store(true, std::memory_order_release);
}

EngineError IngestEngine::error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return error_;
}

void IngestEngine::ApplyChunk(Shard* shard, UpdateChunk* chunk) {
  if (shard->poisoned.load(std::memory_order_relaxed)) {
    // Degraded mode: consume without applying so producers drain instead
    // of hanging behind a dead sink; the loss is accounted, not silent.
    shard->shed_updates.fetch_add(chunk->n, std::memory_order_relaxed);
    return;
  }
  if (shard->fault_sink_stall->ShouldFire()) {
    // Injected slow consumer: the worker really sleeps, so backpressure,
    // watchdog, and overload policies see a genuine stall.
    fault::SleepNs(shard->fault_sink_stall->param());
  }
  try {
    if (shard->fault_sink_throw->ShouldFire()) {
      throw std::runtime_error(
          fault::InjectedFaultMessage(shard->fault_sink_throw->name()));
    }
    if constexpr (obs::kEnabled) {
      // Batch-size distribution on every chunk (one slot-private atomic
      // add per 512 updates); sink latency sampled 1-in-kBatchSampleEvery
      // so the clock reads stay far below the kernel cost.
      shard->obs_batch_size->Record(chunk->n);
      if ((shard->drained_chunks++ & (obs::kBatchSampleEvery - 1)) == 0) {
        const uint64_t t0 = obs::NowNs();
        shard->sink(chunk->updates, chunk->n);
        shard->obs_sink_batch_ns->Record(obs::NowNs() - t0);
      } else {
        shard->sink(chunk->updates, chunk->n);
      }
    } else {
      shard->sink(chunk->updates, chunk->n);
    }
    shard->applied_updates.fetch_add(chunk->n, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    shard->poisoned.store(true, std::memory_order_relaxed);
    shard->shed_updates.fetch_add(chunk->n, std::memory_order_relaxed);
    RecordError(EngineErrorCode::kSinkException, shard->index, e.what());
  } catch (...) {
    shard->poisoned.store(true, std::memory_order_relaxed);
    shard->shed_updates.fetch_add(chunk->n, std::memory_order_relaxed);
    RecordError(EngineErrorCode::kSinkException, shard->index,
                "sink threw a non-std::exception");
  }
}

void IngestEngine::WorkerLoop(Shard* shard) {
  const size_t n_lanes = shard->lanes.size();
  for (;;) {
    // Rotate across lanes, one chunk per lane per pass: fairness across
    // producers, and the single-lane case degenerates to the plain SPSC
    // drain loop.
    bool drained = false;
    for (size_t l = 0; l < n_lanes; ++l) {
      Lane& lane = *shard->lanes[l];
      UpdateChunk* chunk = lane.ring.Front();
      if (chunk == nullptr) continue;
      drained = true;
      ApplyChunk(shard, chunk);
      lane.ring.Pop();
      // Progress advances on every consumed chunk (applied or shed):
      // the watchdog distinguishes "no work" from "work, no progress".
      shard->progress.fetch_add(1, std::memory_order_relaxed);
    }
    if (drained) continue;
    // Every lane looked empty this pass: exit only once every lane's
    // `done` is set AND its ring is still empty afterwards.  A producer
    // commits its final chunks before setting done (release), so the
    // acquire loads here ensure the re-check observes them.
    bool all_done = true;
    for (size_t l = 0; l < n_lanes && all_done; ++l) {
      all_done = shard->lanes[l]->done.load(std::memory_order_acquire);
    }
    if (!all_done) {
      std::this_thread::yield();
      continue;
    }
    bool all_empty = true;
    for (size_t l = 0; l < n_lanes && all_empty; ++l) {
      all_empty = shard->lanes[l]->ring.Front() == nullptr;
    }
    if (all_empty) break;
  }
}

void IngestEngine::WatchdogLoop() {
  const uint64_t timeout = options_.watchdog_ns;
  // Poll a few times per deadline so detection latency stays within ~25%
  // of the configured timeout; floor keeps the thread nearly idle.
  const uint64_t poll_ns = std::max<uint64_t>(timeout / 4, 100'000);
  std::vector<uint64_t> last_progress(shards_.size(), 0);
  std::vector<uint64_t> stagnant_since(shards_.size(), obs::NowNs());
  while (!watchdog_stop_.load(std::memory_order_acquire)) {
    fault::SleepNs(poll_ns);
    const uint64_t now = obs::NowNs();
    for (size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      // Pending work?  Ring emptiness from a third thread is a heuristic
      // (atomic loads, values may lag) -- exactly right for a watchdog:
      // a lagging read only delays detection by one poll.
      bool pending = false;
      for (const auto& lane : shard.lanes) {
        if (!lane->ring.Empty()) {
          pending = true;
          break;
        }
      }
      const uint64_t progress =
          shard.progress.load(std::memory_order_relaxed);
      if (!pending || progress != last_progress[s]) {
        last_progress[s] = progress;
        stagnant_since[s] = now;
        continue;
      }
      if (now - stagnant_since[s] >= timeout &&
          !shard.poisoned.load(std::memory_order_relaxed)) {
        // Poison first so the worker sheds (and producers unblock) the
        // moment it returns from whatever it is wedged in; then name the
        // hang.
        shard.poisoned.store(true, std::memory_order_relaxed);
        RecordError(
            EngineErrorCode::kWorkerStalled, s,
            "worker " + std::to_string(s) + " advanced no chunk for " +
                std::to_string(now - stagnant_since[s]) +
                " ns with chunks queued (watchdog_ns=" +
                std::to_string(timeout) + ")");
      }
    }
  }
}

ProducerHandle* IngestEngine::AddProducer() {
  GSTREAM_CHECK(!closed_);
  const size_t index = next_producer_.fetch_add(1, std::memory_order_acq_rel);
  GSTREAM_CHECK_LT(index, producers_.size());  // raise options.max_producers
  return producers_[index].get();
}

SubmitResult IngestEngine::Submit(const Update* updates, size_t n) {
  GSTREAM_CHECK(!closed_);
  if (internal_ == nullptr) internal_ = AddProducer();
  return internal_->Submit(updates, n);
}

SubmitResult IngestEngine::SubmitStream(const Stream& stream) {
  return Submit(stream.updates().data(), stream.length());
}

size_t IngestEngine::ClaimedProducers() const {
  return std::min(next_producer_.load(std::memory_order_acquire),
                  producers_.size());
}

IngestStats IngestEngine::stats() const {
  IngestStats stats;
  stats.shard_updates.assign(shards_.size(), 0);
  stats.shard_updates_applied.assign(shards_.size(), 0);
  stats.shard_updates_shed.assign(shards_.size(), 0);
  stats.shard_ring_highwater.assign(shards_.size(), 0);
  const size_t claimed = ClaimedProducers();
  for (size_t p = 0; p < claimed; ++p) {
    const IngestStats& s = producers_[p]->stats_;
    stats.updates_submitted += s.updates_submitted;
    stats.chunks_committed += s.chunks_committed;
    stats.producer_stalls += s.producer_stalls;
    stats.producer_stall_ns += s.producer_stall_ns;
    stats.updates_shed += s.updates_shed;
    stats.deadline_timeouts += s.deadline_timeouts;
    for (size_t i = 0; i < shards_.size(); ++i) {
      stats.shard_updates[i] += s.shard_updates[i];
      stats.shard_updates_shed[i] += s.shard_updates_shed[i];
      stats.shard_ring_highwater[i] =
          std::max(stats.shard_ring_highwater[i], s.shard_ring_highwater[i]);
    }
  }
  // Worker-side halves: applied counts, plus sheds the workers performed
  // (poisoned-shard drains).
  for (size_t i = 0; i < shards_.size(); ++i) {
    const uint64_t applied =
        shards_[i]->applied_updates.load(std::memory_order_relaxed);
    const uint64_t shed =
        shards_[i]->shed_updates.load(std::memory_order_relaxed);
    stats.updates_applied += applied;
    stats.shard_updates_applied[i] = applied;
    stats.updates_shed += shed;
    stats.shard_updates_shed[i] += shed;
  }
  return stats;
}

EngineError IngestEngine::Flush() {
  // Closed engines are already quiescent; the barrier below would also
  // deadlock-free trivially, but skipping keeps Flush safe to layer over
  // any lifecycle stage.
  if (closed_) return error();
  obs::TraceSpan span("engine/flush", "engine");
  obs::ScopedTimer timer(obs_.flush_ns);
  // A poisoned worker still *consumes* (shedding), so rings drain after
  // sink exceptions and the barrier completes normally.  Only a wedged
  // worker -- the case the watchdog names -- cannot drain; once the
  // error is up, give it a grace period (long enough for poison to take
  // effect on a merely-slow sink call) and then return the named error
  // instead of inheriting the hang.
  const uint64_t grace_ns =
      options_.watchdog_ns > 0 ? 2 * options_.watchdog_ns : 0;
  uint64_t error_seen_ns = 0;
  bool degraded = false;
  for (auto& shard : shards_) {
    if (degraded) break;
    for (auto& lane : shard->lanes) {
      if (degraded) break;
      while (!lane->ring.Empty()) {
        if (grace_ns > 0 &&
            error_flag_.load(std::memory_order_acquire)) {
          const uint64_t now = obs::NowNs();
          if (error_seen_ns == 0) {
            error_seen_ns = now;
          } else if (now - error_seen_ns >= grace_ns) {
            degraded = true;
            break;
          }
        }
        std::this_thread::yield();
      }
    }
  }
  return error();
}

IngestProducerState IngestEngine::SnapshotProducerState() const {
  // Checkpoints cover the single-producer lifecycle: the only claimable
  // state is the internal handle's.
  GSTREAM_CHECK_EQ(ClaimedProducers(), internal_ == nullptr ? 0u : 1u);
  // Bit-exact resume is only defined under the lossless policy: a run
  // that shed or timed out cannot be replayed from a cursor.
  GSTREAM_CHECK(options_.overload == OverloadPolicy::kBlock);
  IngestProducerState state;
  state.stats.shard_updates.assign(shards_.size(), 0);
  if (internal_ == nullptr) return state;
  const IngestStats& routed = internal_->stats_;
  state.round_robin_next = internal_->round_robin_next_;
  state.stats.updates_submitted = routed.updates_submitted;
  state.stats.chunks_committed = routed.chunks_committed;
  state.stats.producer_stalls = routed.producer_stalls;
  state.stats.shard_updates = routed.shard_updates;
  return state;
}

void IngestEngine::RestoreProducerState(const IngestProducerState& state) {
  GSTREAM_CHECK(!closed_);
  GSTREAM_CHECK(options_.overload == OverloadPolicy::kBlock);
  if (internal_ == nullptr) internal_ = AddProducer();
  // Restore targets a fresh single-producer engine: nothing submitted,
  // no external handles claimed.
  GSTREAM_CHECK_EQ(ClaimedProducers(), 1u);
  GSTREAM_CHECK_EQ(internal_->stats_.updates_submitted, 0u);
  GSTREAM_CHECK_EQ(state.stats.shard_updates.size(), shards_.size());
  internal_->round_robin_next_ = state.round_robin_next;
  IngestStats& adopted = internal_->stats_;
  adopted.updates_submitted = state.stats.updates_submitted;
  adopted.chunks_committed = state.stats.chunks_committed;
  adopted.producer_stalls = state.stats.producer_stalls;
  adopted.shard_updates = state.stats.shard_updates;
  // Applied counts span the logical run like the routed ones: every routed
  // update was applied before the snapshot (kBlock sheds nothing), so
  // routed == applied + shed holds after the resume too.
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->applied_updates.fetch_add(state.stats.shard_updates[s],
                                          std::memory_order_relaxed);
  }
}

EngineError IngestEngine::Close() {
  if (closed_) return error();
  obs::TraceSpan span("engine/close", "engine");
  closed_ = true;
  if (internal_ != nullptr) internal_->Close();
  const size_t claimed = ClaimedProducers();
  for (size_t p = 0; p < claimed; ++p) {
    // External handles must be closed by their owning threads first: only
    // the owner may mark its lanes done.  The acquire in closed() is also
    // the happens-before edge that makes stats() race-free once Close()
    // returns.
    GSTREAM_CHECK(producers_[p]->closed());
  }
  for (size_t p = claimed; p < producers_.size(); ++p) {
    // Unclaimed lanes never had a producer; mark them done so workers can
    // exit.
    for (auto& shard : shards_) {
      shard->lanes[p]->done.store(true, std::memory_order_release);
    }
  }
  // The watchdog stays up through the joins: a worker that wedges while
  // draining its final chunks still gets poisoned (and the hang named).
  for (auto& shard : shards_) shard->worker.join();
  watchdog_stop_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();
  return error();
}

}  // namespace gstream
