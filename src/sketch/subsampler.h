// Nested pairwise-independent subsampling, the layering device of
// Indyk-Woodruff and the Braverman-Ostrovsky recursive sketch (paper
// Theorem 13).
//
// Level 0 contains every item; an item in level l survives to level l+1
// with probability 1/2, decided by an independent pairwise Bernoulli hash
// per level, so S_0 superset S_1 superset ... superset S_L and
// E|S_l| = n / 2^l.  LevelOf(i) returns the deepest level containing i in
// O(LevelOf(i)) hash evaluations -- O(1) in expectation.
//
// The per-level pairwise hashes are the rows of one KWiseHashBank, so the
// level walk is a tight loop over two contiguous coefficient arrays with no
// pointer chasing.

#ifndef GSTREAM_SKETCH_SUBSAMPLER_H_
#define GSTREAM_SKETCH_SUBSAMPLER_H_

#include "stream/stream.h"
#include "util/hash.h"
#include "util/random.h"

namespace gstream {

class NestedSubsampler {
 public:
  // `max_level` L >= 0: levels 0..L are available.
  NestedSubsampler(int max_level, Rng& rng);

  // Deepest level whose sample contains `item`, in [0, max_level].
  int LevelOf(ItemId item) const {
    const uint64_t xm = ReduceToFieldLazy(item);
    const uint64_t* a0 = levels_.DegreeCoeffs(0);
    const uint64_t* a1 = levels_.DegreeCoeffs(1);
    const size_t max = levels_.rows();
    size_t level = 0;
    while (level < max && (Eval2Wise(a0[level], a1[level], xm) & 1) != 0) {
      ++level;
    }
    return static_cast<int>(level);
  }

  // True iff `item` survives to `level`.
  bool InLevel(ItemId item, int level) const {
    return LevelOf(item) >= level;
  }

  int max_level() const { return static_cast<int>(levels_.rows()); }

  // Fingerprint of the drawn level-survival coefficients: equal iff the
  // subsamplers were constructed from equal-state Rngs, in which case they
  // induce identical level partitions.  Guards the recursive sketch's
  // whole-stack merge -- merging level sketches is only meaningful when
  // both stacks subsampled the domain identically.
  uint64_t Fingerprint() const { return fingerprint_; }

  size_t SpaceBytes() const { return levels_.SpaceBytes(); }

 private:
  // Row l is the pairwise survival hash of level l+1: an item in level l
  // survives to level l+1 iff that row's value is odd.
  KWiseHashBank levels_;
  uint64_t fingerprint_ = 0;
};

}  // namespace gstream

#endif  // GSTREAM_SKETCH_SUBSAMPLER_H_
