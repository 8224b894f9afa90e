#include "stream/exact.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace gstream {

void ExactFrequencySketch::UpdateBatch(const gstream::Update* updates,
                                       size_t n) {
  if (n == 0) return;
  ItemId run_item = updates[0].item;
  int64_t* run_slot = &freq_[run_item];
  *run_slot += updates[0].delta;
  for (size_t i = 1; i < n; ++i) {
    if (updates[i].item != run_item) {
      run_item = updates[i].item;
      run_slot = &freq_[run_item];
    }
    *run_slot += updates[i].delta;
  }
}

void ExactFrequencySketch::MergeFrom(const ExactFrequencySketch& other) {
  for (const auto& [item, value] : other.freq_) freq_[item] += value;
}

FrequencyMap ExactFrequencySketch::Frequencies() const {
  FrequencyMap out;
  out.reserve(freq_.size());
  for (const auto& [item, value] : freq_) {
    if (value != 0) out.emplace(item, value);
  }
  return out;
}

double ExactGSum(const FrequencyMap& freq, const GCallable& g) {
  double sum = 0.0;
  for (const auto& [item, value] : freq) {
    if (value != 0) sum += g(std::llabs(value));
  }
  return sum;
}

double ExactMoment(const FrequencyMap& freq, double p) {
  double sum = 0.0;
  for (const auto& [item, value] : freq) {
    if (value == 0) continue;
    sum += (p == 0.0)
               ? 1.0
               : std::pow(static_cast<double>(std::llabs(value)), p);
  }
  return sum;
}

std::vector<std::pair<ItemId, int64_t>> ExactGHeavyHitters(
    const FrequencyMap& freq, const GCallable& g, double lambda) {
  const double total = ExactGSum(freq, g);
  std::vector<std::pair<ItemId, int64_t>> heavy;
  for (const auto& [item, value] : freq) {
    if (value == 0) continue;
    const double gv = g(std::llabs(value));
    if (gv >= lambda * (total - gv)) heavy.emplace_back(item, value);
  }
  std::sort(heavy.begin(), heavy.end(),
            [&](const auto& a, const auto& b) {
              const double ga = g(std::llabs(a.second));
              const double gb = g(std::llabs(b.second));
              if (ga != gb) return ga > gb;
              return a.first < b.first;
            });
  return heavy;
}

}  // namespace gstream
