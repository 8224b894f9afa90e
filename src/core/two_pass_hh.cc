#include "core/two_pass_hh.h"

#include <algorithm>

#include "util/logging.h"

namespace gstream {

TwoPassHeavyHitter::TwoPassHeavyHitter(const TwoPassHHOptions& options,
                                       Rng& rng)
    : options_(options),
      tracker_(options.count_sketch, options.candidates, rng) {}

void TwoPassHeavyHitter::Update(ItemId item, int64_t delta) {
  if (current_pass_ == 1) {
    tracker_.Update(item, delta);
    return;
  }
  // Only the frozen candidates are tabulated; everything else is skipped,
  // which is what keeps the second pass sub-polynomial.
  const auto it = std::lower_bound(candidate_ids_.begin(),
                                   candidate_ids_.end(), item);
  if (it != candidate_ids_.end() && *it == item) {
    exact_counts_[static_cast<size_t>(it - candidate_ids_.begin())] += delta;
  }
}

void TwoPassHeavyHitter::UpdateBatch(const gstream::Update* updates, size_t n) {
  if (current_pass_ == 1) {
    tracker_.UpdateBatch(updates, n);
    return;
  }
  if (n == 0 || candidate_ids_.empty()) return;
  // One binary search per run of equal items: aggregated streams repeat
  // items back-to-back and candidate hits cluster, so the search cost
  // amortizes below one probe per update.  Bit-identical to the
  // sequential loop (addition into the same slot commutes).
  const ItemId* ids = candidate_ids_.data();
  const size_t slots = candidate_ids_.size();
  ItemId run_item = updates[0].item;
  const ItemId* found = std::lower_bound(ids, ids + slots, run_item);
  size_t run_slot = static_cast<size_t>(found - ids);
  bool run_hit = run_slot < slots && ids[run_slot] == run_item;
  for (size_t i = 0; i < n; ++i) {
    if (updates[i].item != run_item) {
      run_item = updates[i].item;
      found = std::lower_bound(ids, ids + slots, run_item);
      run_slot = static_cast<size_t>(found - ids);
      run_hit = run_slot < slots && ids[run_slot] == run_item;
    }
    if (run_hit) exact_counts_[run_slot] += updates[i].delta;
  }
}

void TwoPassHeavyHitter::AdvancePass() {
  GSTREAM_CHECK_EQ(current_pass_, 1);
  current_pass_ = 2;
  // Freeze the candidate list -- the k strongest estimates, exactly what
  // TopK() reports -- discarding the pass-1 frequency estimates
  // (Algorithm 1 line 3).  Sorted layout for the pass-2 binary search.
  candidate_ids_.clear();
  for (const auto& [item, estimate] : tracker_.TopK()) {
    candidate_ids_.push_back(item);
  }
  std::sort(candidate_ids_.begin(), candidate_ids_.end());
  exact_counts_.assign(candidate_ids_.size(), 0);
}

void TwoPassHeavyHitter::MergeFrom(const TwoPassHeavyHitter& other) {
  GSTREAM_CHECK_EQ(current_pass_, other.current_pass_);
  if (current_pass_ == 1) {
    tracker_.MergeFrom(other.tracker_);
    return;
  }
  // Pass 2: replicas must tabulate the identical frozen candidate list
  // (ReplicateFactory guarantees this); summing the counts then equals one
  // tabulator that saw both shards.  The tracker is deliberately NOT
  // merged: it froze at AdvancePass, every replica carries the same copy,
  // and summing copies would double its counters without meaning.
  GSTREAM_CHECK(candidate_ids_ == other.candidate_ids_);
  for (size_t i = 0; i < exact_counts_.size(); ++i) {
    exact_counts_[i] += other.exact_counts_[i];
  }
}

void TwoPassHeavyHitter::MergeFrom(const GHeavyHitterSketch& other) {
  const auto* o = dynamic_cast<const TwoPassHeavyHitter*>(&other);
  GSTREAM_CHECK(o != nullptr);
  MergeFrom(*o);
}

GCover TwoPassHeavyHitter::Cover(const GFunction& g) const {
  GSTREAM_CHECK_EQ(current_pass_, 2);
  GCover cover;
  cover.reserve(candidate_ids_.size());
  for (size_t i = 0; i < candidate_ids_.size(); ++i) {
    const int64_t value = exact_counts_[i];
    if (value == 0) continue;
    cover.push_back(
        GCoverEntry{candidate_ids_[i], value, g.ValueAbs(value), true});
  }
  return cover;
}

size_t TwoPassHeavyHitter::SpaceBytes() const {
  return tracker_.SpaceBytes() +
         candidate_ids_.size() * (sizeof(ItemId) + sizeof(int64_t));
}

TwoPassHeavyHitter ProcessTwoPassHH(const TwoPassHHOptions& options,
                                    uint64_t seed, const Stream& stream) {
  Rng rng(seed);
  TwoPassHeavyHitter hh(options, rng);
  ProcessStream(hh, stream);
  hh.AdvancePass();
  ProcessStream(hh, stream);
  return hh;
}

}  // namespace gstream
