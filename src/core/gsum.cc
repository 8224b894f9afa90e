#include "core/gsum.h"

#include <algorithm>
#include <utility>

#include "core/one_pass_hh.h"
#include "core/two_pass_hh.h"
#include "gfunc/envelope.h"
#include "util/bit.h"
#include "util/logging.h"

namespace gstream {

GSumEstimator::GSumEstimator(GFunctionPtr g, uint64_t domain,
                             const GSumOptions& options)
    : g_(std::move(g)), options_(options) {
  GSTREAM_CHECK(g_ != nullptr);
  GSTREAM_CHECK(options.passes == 1 || options.passes == 2);
  GSTREAM_CHECK_GE(options.repetitions, 1u);
  GSTREAM_CHECK_GE(domain, 1u);

  h_envelope_ = options.h_envelope;
  if (h_envelope_ < 0.0) {
    h_envelope_ = HEnvelope(EvaluateTable(*g_, options.envelope_domain));
  }
  GSTREAM_CHECK(h_envelope_ >= 1.0);

  int levels = options.levels;
  if (levels < 0) {
    const int domain_bits = Log2Ceil(std::max<uint64_t>(domain, 2));
    const int candidate_bits =
        Log2Floor(std::max<uint64_t>(options_.candidates, 2));
    levels = std::max(1, domain_bits - candidate_bits);
  }

  GHeavyHitterFactory factory;
  if (options.passes == 1) {
    OnePassHHOptions hh;
    hh.count_sketch = CountSketchOptions{options.cs_rows, options.cs_buckets};
    hh.ams = options.ams;
    hh.candidates = options.candidates;
    hh.epsilon = options.epsilon;
    hh.h_envelope = h_envelope_;
    factory = [hh](int /*level*/, Rng& rng) {
      return std::make_unique<OnePassHeavyHitter>(hh, rng);
    };
  } else {
    TwoPassHHOptions hh;
    hh.count_sketch = CountSketchOptions{options.cs_rows, options.cs_buckets};
    hh.candidates = options.candidates;
    factory = [hh](int /*level*/, Rng& rng) {
      return std::make_unique<TwoPassHeavyHitter>(hh, rng);
    };
  }

  Rng root(options.seed);
  reps_.reserve(options.repetitions);
  for (size_t r = 0; r < options.repetitions; ++r) {
    Rng child = root.Fork();
    reps_.emplace_back(levels, factory, child);
  }
}

void GSumEstimator::Update(ItemId item, int64_t delta) {
  for (RecursiveGSum& rep : reps_) rep.Update(item, delta);
}

void GSumEstimator::UpdateBatch(const gstream::Update* updates, size_t n) {
  for (RecursiveGSum& rep : reps_) rep.UpdateBatch(updates, n);
}

void GSumEstimator::AdvancePass() {
  for (RecursiveGSum& rep : reps_) rep.AdvancePass();
}

double GSumEstimator::EstimateForG(const GFunction& other) const {
  std::vector<double> estimates;
  estimates.reserve(reps_.size());
  for (const RecursiveGSum& rep : reps_) {
    estimates.push_back(rep.Estimate(other));
  }
  std::sort(estimates.begin(), estimates.end());
  return estimates[estimates.size() / 2];
}

double GSumEstimator::Process(const Stream& stream) {
  for (int p = 0; p < options_.passes; ++p) {
    if (p > 0) AdvancePass();
    stream.ForEachBatch(kStreamBatchSize,
                        [&](const gstream::Update* ups, size_t n) {
                          UpdateBatch(ups, n);
                        });
  }
  return Estimate();
}

GSumEstimator GSumEstimator::Replicate() const {
  GSumEstimator replica;
  replica.g_ = g_;
  replica.options_ = options_;
  replica.h_envelope_ = h_envelope_;
  replica.reps_.reserve(reps_.size());
  for (const RecursiveGSum& rep : reps_) {
    replica.reps_.push_back(rep.Replicate());
  }
  return replica;
}

void GSumEstimator::MergeFrom(const GSumEstimator& other) {
  GSTREAM_CHECK_EQ(reps_.size(), other.reps_.size());
  for (size_t r = 0; r < reps_.size(); ++r) {
    reps_[r].MergeFrom(other.reps_[r]);
  }
}

size_t GSumEstimator::SpaceBytes() const {
  size_t bytes = 0;
  for (const RecursiveGSum& rep : reps_) bytes += rep.SpaceBytes();
  return bytes;
}

}  // namespace gstream
