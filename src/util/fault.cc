#include "util/fault.h"

#if GSTREAM_FAULTS_ENABLED

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "util/hash.h"

namespace gstream {
namespace fault {
namespace {

// FNV-1a over the site name: folds the name into the seed so every site
// draws from an independent decision stream under one schedule seed.  The
// start value is not kFnvOffsetBasis (it lacks that constant's last
// decimal digit); it stays, because every recorded schedule's decisions
// derive from it.
uint64_t HashName(const std::string& name) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : name) h = FnvFold(h, static_cast<unsigned char>(c));
  return h;
}

uint64_t ProbabilityThreshold(double p) {
  if (p >= 1.0) return ~0ULL;
  if (p <= 0.0) return 0;
  return static_cast<uint64_t>(p * static_cast<double>(~0ULL));
}

}  // namespace

struct Registry::Impl {
  mutable std::mutex mu;
  // Site handles are never destroyed (process-lifetime, like obs
  // instruments); the map owns them.
  std::map<std::string, std::unique_ptr<FaultPoint>> points;
};

Registry& Registry::Get() {
  static Registry* registry = new Registry();  // leak on purpose: no
  return *registry;                            // exit-order hazards
}

Registry::Impl* Registry::impl() const {
  static Impl* impl = new Impl();
  return impl;
}

FaultPoint* Registry::GetPoint(const std::string& name) {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  auto it = im->points.find(name);
  if (it == im->points.end()) {
    it = im->points
             .emplace(name, std::unique_ptr<FaultPoint>(new FaultPoint(name)))
             .first;
  }
  return it->second.get();
}

void Registry::Arm(uint64_t seed, const std::vector<FaultSpec>& specs) {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  // Disarm-all first so a schedule fully replaces the previous one.
  for (auto& entry : im->points) {
    entry.second->armed_.store(false, std::memory_order_release);
  }
  for (const FaultSpec& spec : specs) {
    auto it = im->points.find(spec.site);
    if (it == im->points.end()) {
      it = im->points
               .emplace(spec.site,
                        std::unique_ptr<FaultPoint>(new FaultPoint(spec.site)))
               .first;
    }
    FaultPoint* point = it->second.get();
    point->key_ = seed ^ HashName(spec.site);
    point->threshold_ = ProbabilityThreshold(spec.probability);
    point->max_fires_ = spec.max_fires;
    point->param_.store(spec.param, std::memory_order_relaxed);
    // Fresh counters: decision index k restarts at 0, which is what makes
    // the schedule reproduce under the same seed.
    point->evaluations_.store(0, std::memory_order_relaxed);
    point->fires_.store(0, std::memory_order_relaxed);
    // Release everything configured above to ShouldFire's acquire load.
    point->armed_.store(spec.probability > 0.0, std::memory_order_release);
  }
}

void Registry::Disarm() {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  for (auto& entry : im->points) {
    entry.second->armed_.store(false, std::memory_order_release);
  }
}

std::vector<FaultSiteInfo> Registry::Sites() const {
  Impl* im = impl();
  std::lock_guard<std::mutex> lock(im->mu);
  std::vector<FaultSiteInfo> sites;
  sites.reserve(im->points.size());
  for (const auto& entry : im->points) {
    const FaultPoint& p = *entry.second;
    FaultSiteInfo info;
    info.name = p.name_;
    info.armed = p.armed_.load(std::memory_order_acquire);
    info.probability = p.threshold_ == 0
                           ? 0.0
                           : static_cast<double>(p.threshold_) /
                                 static_cast<double>(~0ULL);
    info.param = p.param();
    info.evaluations = p.evaluations();
    info.fires = p.fires();
    sites.push_back(std::move(info));
  }
  return sites;  // std::map iteration is already name-sorted
}

}  // namespace fault
}  // namespace gstream

#endif  // GSTREAM_FAULTS_ENABLED
