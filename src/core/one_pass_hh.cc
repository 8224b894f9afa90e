#include "core/one_pass_hh.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>

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
  // Both components are linear, so each distinct item's net delta leaves
  // them as the raw chunk would; the tracker's own coalesce then finds
  // the chunk ascending and returns it after one scan.
  const std::span<const gstream::Update> chunk =
      CoalesceChunk(updates, n, &chunk_.buf);
  tracker_.UpdateBatch(chunk.data(), chunk.size());
  ams_.UpdateBatch(chunk.data(), chunk.size());
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
  // even linear grid, then E itself.  Both signs each.  That is at most
  // 8 + 59 geometric (16 .. 2^62) + 15 linear (E / step < 16) + 1
  // magnitudes, so they fit a stack array; sort + unique drops the
  // repeats, and the test is an AND, so probing order does not matter.
  std::array<int64_t, 8 + 59 + 15 + 1> magnitudes;
  size_t count = 0;
  for (int64_t m = 1; m <= std::min<int64_t>(8, e); ++m) {
    magnitudes[count++] = m;
  }
  // Every magnitude so far is distinct, so `count` is the distinct count
  // the probe budget caps.
  for (int64_t m = 16; m < e && count < probe_points; m *= 2) {
    magnitudes[count++] = m;
    if (m > std::numeric_limits<int64_t>::max() / 2) break;
  }
  const int64_t step = std::max<int64_t>(1, e / 8);
  for (int64_t m = step; m < e; m += step) magnitudes[count++] = m;
  magnitudes[count++] = e;
  std::sort(magnitudes.begin(), magnitudes.begin() + count);
  const auto last = std::unique(magnitudes.begin(), magnitudes.begin() + count);
  for (auto it = magnitudes.begin(); it != last; ++it) {
    if (!stable_at(*it) || !stable_at(-*it)) return false;
  }
  return true;
}

GCover OnePassHeavyHitter::Cover(const GFunction& g) const {
  const int64_t e = PruningRadius();
  GCover cover;
  for (const auto& [item, v_hat] : tracker_.TopK()) {
    if (v_hat == 0) continue;
    if (!SurvivesPruning(g, v_hat, e, options_.epsilon, kProbePoints)) {
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
