// The turnstile data-stream model of the paper (Section 1.2).
//
// A stream of length m with domain [n] is a list of updates (i_j, delta_j)
// with i_j in [n] and integer delta_j; the frequency vector V(D) has
// v_i = sum of deltas for item i.  The turnstile promise is that every
// prefix keeps |v_i| <= M for a bound M in poly(n); the insertion-only
// model restricts delta_j == +1.

#ifndef GSTREAM_STREAM_STREAM_H_
#define GSTREAM_STREAM_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/logging.h"

namespace gstream {

// Item identifiers are indices into the domain [0, n).
using ItemId = uint64_t;

// Sparse exact frequency vector.
using FrequencyMap = std::unordered_map<ItemId, int64_t>;

// One stream update (i, delta).
struct Update {
  ItemId item = 0;
  int64_t delta = 0;
};

// Default chunk size for batched stream consumption: 512 updates (8 KiB)
// keep a whole chunk resident in L1 while a sketch re-scans it row-major.
inline constexpr size_t kStreamBatchSize = 512;

// An in-memory turnstile stream over domain [0, n).
//
// The class stores updates in arrival order; streaming algorithms consume
// them through a single forward scan per pass, never via random access to
// frequencies, so multi-pass algorithms are honestly modeled.
class Stream {
 public:
  // Creates an empty stream with the given domain size n >= 1.
  explicit Stream(uint64_t domain);

  // Appends one update; `item` must lie in [0, domain).
  void Append(ItemId item, int64_t delta);

  // Pre-allocates capacity for `n` total updates; generators and ingestion
  // feeds that know the stream length up front call this to avoid
  // reallocation churn while appending.
  void Reserve(size_t n) { updates_.reserve(n); }

  // Sets the length to exactly `n`, allocating once; new updates are
  // (0, 0).  For a writer that knows the length up front and fills the
  // updates out of order with Set, e.g. several threads on disjoint index
  // ranges.
  void Resize(size_t n) { updates_.resize(n); }

  // Overwrites update `index` (< length()); `item` must lie in
  // [0, domain), as for Append.
  void Set(size_t index, ItemId item, int64_t delta) {
    GSTREAM_CHECK_LT(item, domain_);
    GSTREAM_DCHECK(index < updates_.size());
    updates_[index] = Update{item, delta};
  }

  // Appends all updates of `other` (domains must agree).  Models protocol
  // concatenation, e.g. Alice's stream followed by Bob's.
  void AppendStream(const Stream& other);

  uint64_t domain() const { return domain_; }
  size_t length() const { return updates_.size(); }
  const std::vector<Update>& updates() const { return updates_; }

  // Invokes `fn(const Update*, size_t)` on consecutive chunks of at most
  // `max_batch` updates, covering the stream in arrival order.  This is the
  // driver for the batched sketch path: one forward scan, no copies.
  // Every batched drive in the library flows through here, so this is the
  // one place the "sketch/batch_*" instruments live: batch sizes on every
  // chunk, kernel latency sampled 1-in-kBatchSampleEvery (the two clock
  // reads cost ~50 ns against multi-microsecond kernels).  Compiled out
  // entirely under GSTREAM_OBS=OFF.
  template <typename Fn>
  void ForEachBatch(size_t max_batch, Fn&& fn) const {
    const Update* data = updates_.data();
    const size_t total = updates_.size();
    if constexpr (obs::kEnabled) {
      static obs::Histogram* const batch_ns =
          obs::Registry::Get().GetHistogram("sketch/batch_ns");
      static obs::Histogram* const batch_size =
          obs::Registry::Get().GetHistogram("sketch/batch_size");
      uint64_t scanned = 0;
      for (size_t i = 0; i < total; i += max_batch) {
        const size_t len = std::min(max_batch, total - i);
        batch_size->Record(len);
        if ((scanned++ & (obs::kBatchSampleEvery - 1)) == 0) {
          const uint64_t t0 = obs::NowNs();
          fn(data + i, len);
          batch_ns->Record(obs::NowNs() - t0);
        } else {
          fn(data + i, len);
        }
      }
    } else {
      for (size_t i = 0; i < total; i += max_batch) {
        fn(data + i, std::min(max_batch, total - i));
      }
    }
  }

 private:
  uint64_t domain_;
  std::vector<Update> updates_;
};

// Coalesces a chunk into its net per-item deltas: ascending by item, each
// item once, its deltas summed with uint64_t wraparound, and items whose
// net delta is zero kept.  Returns `updates` itself when the chunk is
// already strictly ascending (one O(n) scan, no copy), else a view of
// `*scratch`.  A linear sketch fed the coalesced chunk ends in the same
// state as one fed the raw chunk: its counters add s * delta, and addition
// mod 2^64 is associative and commutative.  Keeping net-zero items keeps
// the set of touched items, so a tracker that refreshes every touched item
// after a chunk refreshes the same ones.
std::span<const Update> CoalesceChunk(const Update* updates, size_t n,
                                      std::vector<Update>* scratch);

// Computes the exact frequency vector of `stream` (one scan).  Items whose
// net frequency is zero are omitted.
FrequencyMap ExactFrequencies(const Stream& stream);

}  // namespace gstream

#endif  // GSTREAM_STREAM_STREAM_H_
