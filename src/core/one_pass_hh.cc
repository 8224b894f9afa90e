#include "core/one_pass_hh.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/logging.h"

namespace gstream {

OnePassHeavyHitter::OnePassHeavyHitter(const OnePassHHOptions& options,
                                       Rng& rng)
    : options_(options),
      tracker_(options.count_sketch, options.candidates, rng),
      ams_(options.ams, rng) {
  GSTREAM_CHECK(options.epsilon > 0.0);
  GSTREAM_CHECK(options.h_envelope >= 1.0);
}

void OnePassHeavyHitter::Update(ItemId item, int64_t delta) {
  tracker_.Update(item, delta);
  ams_.Update(item, delta);
}

void OnePassHeavyHitter::UpdateBatch(const gstream::Update* updates, size_t n) {
  tracker_.UpdateBatch(updates, n);
  ams_.UpdateBatch(updates, n);
}

void OnePassHeavyHitter::AdvancePass() {
  GSTREAM_CHECK(false);  // single-pass algorithm
}

void OnePassHeavyHitter::MergeFrom(const OnePassHeavyHitter& other) {
  tracker_.MergeFrom(other.tracker_);
  ams_.MergeFrom(other.ams_);
}

void OnePassHeavyHitter::MergeFrom(const GHeavyHitterSketch& other) {
  const auto* o = dynamic_cast<const OnePassHeavyHitter*>(&other);
  GSTREAM_CHECK(o != nullptr);
  MergeFrom(*o);
}

OnePassHeavyHitter ProcessOnePassHH(const OnePassHHOptions& options,
                                    uint64_t seed, const Stream& stream) {
  Rng rng(seed);
  OnePassHeavyHitter hh(options, rng);
  ProcessStream(hh, stream);
  return hh;
}

int64_t OnePassHeavyHitter::PruningRadius() const {
  const double f2 = std::max(0.0, ams_.EstimateF2());
  // The paper's interval (eps/2H) sqrt(F2) assumes the CountSketch was
  // sized so its error matches it; with a caller-chosen bucket count the
  // actual high-probability error bound 3 sqrt(F2 / b) can be smaller, and
  // the stability test only needs to cover the real estimation error --
  // take the tighter of the two.
  const double paper_e =
      options_.epsilon / (2.0 * options_.h_envelope) * std::sqrt(f2);
  const double sketch_e = std::sqrt(
      f2 / static_cast<double>(options_.count_sketch.buckets));
  // Enormous envelopes (intractable g) drive E below 1: no stability
  // requirement can be certified and candidates are kept with whatever
  // error the CountSketch produced, mirroring the paper's regime where the
  // algorithm's guarantee is vacuous.
  return static_cast<int64_t>(std::min({paper_e, sketch_e, 4.0e18}));
}

bool OnePassHeavyHitter::SurvivesPruning(const GFunction& g, int64_t v_hat,
                                         int64_t e, double epsilon,
                                         size_t probe_points) {
  if (e <= 0) return true;
  const double g_hat = g.ValueAbs(v_hat);
  auto stable_at = [&](int64_t y) {
    const double g_shift = g.ValueAbs(v_hat + y);
    return std::fabs(g_hat - g_shift) <= epsilon * g_shift;
  };
  // Probe magnitudes: 1..8 exhaustively, then geometric up to E, then an
  // even linear grid, then E itself.  Both signs each.
  std::unordered_set<int64_t> magnitudes;
  for (int64_t m = 1; m <= std::min<int64_t>(8, e); ++m) magnitudes.insert(m);
  for (int64_t m = 16; m < e && magnitudes.size() < probe_points; m *= 2) {
    magnitudes.insert(m);
  }
  const int64_t step = std::max<int64_t>(1, e / 8);
  for (int64_t m = step; m < e; m += step) magnitudes.insert(m);
  magnitudes.insert(e);
  for (const int64_t m : magnitudes) {
    if (!stable_at(m) || !stable_at(-m)) return false;
  }
  return true;
}

GCover OnePassHeavyHitter::Cover(const GFunction& g) const {
  const int64_t e = PruningRadius();
  GCover cover;
  for (const auto& [item, v_hat] : tracker_.TopK()) {
    if (v_hat == 0) continue;
    if (!SurvivesPruning(g, v_hat, e, options_.epsilon,
                         options_.probe_points)) {
      continue;
    }
    cover.push_back(GCoverEntry{item, v_hat, g.ValueAbs(v_hat), true});
  }
  return cover;
}

size_t OnePassHeavyHitter::SpaceBytes() const {
  return tracker_.SpaceBytes() + ams_.SpaceBytes();
}

}  // namespace gstream
