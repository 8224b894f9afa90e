#include "stream/stream.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "util/random.h"
#include "util/scratch.h"

namespace gstream {
namespace {

TEST(StreamTest, EmptyStream) {
  Stream s(10);
  EXPECT_EQ(s.domain(), 10u);
  EXPECT_EQ(s.length(), 0u);
  EXPECT_TRUE(ExactFrequencies(s).empty());
}

TEST(StreamTest, AppendAccumulatesFrequencies) {
  Stream s(10);
  s.Append(3, 5);
  s.Append(3, -2);
  s.Append(7, 1);
  const FrequencyMap freq = ExactFrequencies(s);
  EXPECT_EQ(freq.size(), 2u);
  EXPECT_EQ(freq.at(3), 3);
  EXPECT_EQ(freq.at(7), 1);
}

TEST(StreamTest, ZeroNetFrequenciesDropped) {
  Stream s(4);
  s.Append(1, 4);
  s.Append(1, -4);
  s.Append(2, 1);
  const FrequencyMap freq = ExactFrequencies(s);
  EXPECT_EQ(freq.size(), 1u);
  EXPECT_FALSE(freq.contains(1));
}

TEST(StreamTest, AppendStreamConcatenates) {
  Stream alice(8), bob(8);
  alice.Append(1, 3);
  bob.Append(1, 2);
  bob.Append(5, 1);
  alice.AppendStream(bob);
  EXPECT_EQ(alice.length(), 3u);
  const FrequencyMap freq = ExactFrequencies(alice);
  EXPECT_EQ(freq.at(1), 5);
  EXPECT_EQ(freq.at(5), 1);
}

TEST(CoalesceChunkTest, StrictlyAscendingChunkIsReturnedInPlace) {
  const std::vector<Update> chunk = {{1, 5}, {4, 0}, {9, -2}, {10, 7}};
  std::vector<Update> scratch;
  const std::span<const Update> out =
      CoalesceChunk(chunk.data(), chunk.size(), &scratch);
  EXPECT_EQ(out.data(), chunk.data());
  EXPECT_EQ(out.size(), chunk.size());
  EXPECT_TRUE(scratch.empty());
  EXPECT_TRUE(CoalesceChunk(chunk.data(), 0, &scratch).empty());
  EXPECT_EQ(CoalesceChunk(chunk.data(), 1, &scratch).data(), chunk.data());
}

TEST(CoalesceChunkTest, RepeatsSumToOneAscendingEntryAndNetZeroStays) {
  // Descending input, one repeat, and an item whose deltas cancel.
  const std::vector<Update> chunk = {{9, 1}, {7, 4}, {7, -4}, {3, 2},
                                     {9, 6}, {3, 2}, {1, -1}};
  std::vector<Update> scratch;
  const std::span<const Update> out =
      CoalesceChunk(chunk.data(), chunk.size(), &scratch);
  ASSERT_EQ(out.size(), 4u);
  // A view into the scratch buffer, not the input.
  EXPECT_GE(out.data(), scratch.data());
  EXPECT_LE(out.data() + out.size(), scratch.data() + scratch.size());
  const ItemId items[] = {1, 3, 7, 9};
  const int64_t nets[] = {-1, 4, 0, 7};
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].item, items[i]);
    EXPECT_EQ(out[i].delta, nets[i]);
  }
}

TEST(CoalesceChunkTest, NetDeltasWrapModTwoToThe64) {
  // Any two of these three deltas overflow int64 when added, whatever the
  // summation order; the net is defined mod 2^64 (here exactly zero).
  constexpr int64_t kBig = std::numeric_limits<int64_t>::max() - 5;
  const int64_t rest =
      static_cast<int64_t>(uint64_t{0} - 2 * static_cast<uint64_t>(kBig));
  const std::vector<Update> chunk = {{2, kBig}, {1, 3}, {2, rest}, {2, kBig}};
  std::vector<Update> scratch;
  const std::span<const Update> out =
      CoalesceChunk(chunk.data(), chunk.size(), &scratch);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].item, 2u);
  EXPECT_EQ(out[1].delta, 0);
}

TEST(CoalesceChunkTest, MatchesAMapModelOnRandomChunks) {
  Rng rng(0xc0a1);
  std::vector<Update> scratch;
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = rng.NextUint64() % 1500;
    std::vector<Update> chunk(n);
    std::map<ItemId, uint64_t> model;
    for (Update& u : chunk) {
      u.item = rng.NextUint64() % 97;
      u.delta = static_cast<int64_t>(rng.NextUint64());
      model[u.item] += static_cast<uint64_t>(u.delta);
    }
    const std::span<const Update> out =
        CoalesceChunk(chunk.data(), n, &scratch);
    ASSERT_EQ(out.size(), model.size());
    size_t i = 0;
    for (const auto& [item, net] : model) {
      EXPECT_EQ(out[i].item, item);
      EXPECT_EQ(out[i].delta, static_cast<int64_t>(net));
      ++i;
    }
  }
}

TEST(ScratchTest, CopiesStartEmptyAndMovesCarryTheBuffer) {
  Scratch<int> a;
  a.buf.assign(100, 7);
  Scratch<int> copy(a);
  EXPECT_TRUE(copy.buf.empty());
  EXPECT_EQ(copy.buf.capacity(), 0u);
  Scratch<int> assigned;
  assigned.buf.assign(10, 1);
  assigned = a;
  EXPECT_EQ(assigned.buf.capacity(), 0u);
  EXPECT_EQ(a.buf.size(), 100u);
  Scratch<int> moved(std::move(a));
  EXPECT_EQ(moved.buf.size(), 100u);
}

TEST(StreamDeathTest, RejectsOutOfDomainItem) {
  Stream s(4);
  EXPECT_DEATH(s.Append(4, 1), "GSTREAM_CHECK");
}

TEST(StreamDeathTest, RejectsZeroDomain) {
  EXPECT_DEATH(Stream(0), "GSTREAM_CHECK");
}

TEST(StreamDeathTest, AppendStreamRequiresSameDomain) {
  Stream a(4), b(5);
  EXPECT_DEATH(a.AppendStream(b), "GSTREAM_CHECK");
}

}  // namespace
}  // namespace gstream
