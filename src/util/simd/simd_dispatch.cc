// ISA tier selection for the SIMD hash kernels: CPUID probing, the
// GSTREAM_FORCE_ISA environment override, and the programmatic force used
// by tests and the benchmark harness.  Selection runs once, on first use,
// and publishes the active table through an atomic pointer so engine
// worker threads dispatch with a single relaxed load.

#include "util/simd/simd_dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace gstream {
namespace simd {
namespace {

const SimdOps* TierOps(IsaTier tier) {
  switch (tier) {
    case IsaTier::kScalar:
      return GetScalarOps();
    case IsaTier::kAvx2:
      return GetAvx2Ops();
    case IsaTier::kAvx512:
      return GetAvx512Ops();
  }
  return nullptr;
}

bool CpuSupports(IsaTier tier) {
#if defined(__x86_64__) || defined(__i386__)
  switch (tier) {
    case IsaTier::kScalar:
      return true;
    case IsaTier::kAvx2:
      return __builtin_cpu_supports("avx2");
    case IsaTier::kAvx512:
      // The kAvx512 tier is compiled with f/dq/vl/ifma (vpmullq needs DQ,
      // vpmadd52 needs IFMA); hosts missing any of them fall back to AVX2.
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512ifma");
  }
  return false;
#else
  return tier == IsaTier::kScalar;
#endif
}

// Best tier that is both compiled in and supported by this CPU.
IsaTier DetectBestTier() {
  for (const IsaTier tier : {IsaTier::kAvx512, IsaTier::kAvx2}) {
    if (TierOps(tier) != nullptr && CpuSupports(tier)) return tier;
  }
  return IsaTier::kScalar;
}

// Parses GSTREAM_FORCE_ISA if set; clamps an unavailable request down to
// the best available tier not above it (warning once on stderr), so a
// forced-avx512 test run degrades gracefully on an AVX2-only host.
IsaTier ApplyEnvOverride(IsaTier best) {
  const char* force = std::getenv("GSTREAM_FORCE_ISA");
  if (force == nullptr || force[0] == '\0') return best;
  IsaTier want;
  if (std::strcmp(force, "scalar") == 0) {
    want = IsaTier::kScalar;
  } else if (std::strcmp(force, "avx2") == 0) {
    want = IsaTier::kAvx2;
  } else if (std::strcmp(force, "avx512") == 0) {
    want = IsaTier::kAvx512;
  } else {
    std::fprintf(stderr,
                 "gstream: ignoring unknown GSTREAM_FORCE_ISA=%s "
                 "(expected scalar|avx2|avx512)\n",
                 force);
    return best;
  }
  while (want != IsaTier::kScalar &&
         (TierOps(want) == nullptr || !CpuSupports(want))) {
    want = static_cast<IsaTier>(static_cast<int>(want) - 1);
  }
  if (std::strcmp(force, IsaTierName(want)) != 0) {
    std::fprintf(stderr,
                 "gstream: GSTREAM_FORCE_ISA=%s unavailable on this "
                 "build/host; using %s\n",
                 force, IsaTierName(want));
  }
  return want;
}

std::atomic<const SimdOps*> g_ops{nullptr};
std::atomic<int> g_tier{0};
std::once_flag g_init_once;

void SetTier(IsaTier tier) {
  g_tier.store(static_cast<int>(tier), std::memory_order_relaxed);
  g_ops.store(TierOps(tier), std::memory_order_release);
}

void EnsureInit() {
  std::call_once(g_init_once,
                 [] { SetTier(ApplyEnvOverride(DetectBestTier())); });
}

}  // namespace

const char* IsaTierName(IsaTier tier) {
  switch (tier) {
    case IsaTier::kScalar:
      return "scalar";
    case IsaTier::kAvx2:
      return "avx2";
    case IsaTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

const SimdOps& Ops() {
  EnsureInit();
  return *g_ops.load(std::memory_order_acquire);
}

IsaTier ActiveIsaTier() {
  EnsureInit();
  return static_cast<IsaTier>(g_tier.load(std::memory_order_relaxed));
}

bool IsaTierAvailable(IsaTier tier) {
  return TierOps(tier) != nullptr && CpuSupports(tier);
}

bool ForceIsaTier(IsaTier tier) {
  EnsureInit();
  if (!IsaTierAvailable(tier)) return false;
  SetTier(tier);
  return true;
}

void ClearForcedIsaTier() {
  EnsureInit();
  SetTier(ApplyEnvOverride(DetectBestTier()));
}

}  // namespace simd
}  // namespace gstream
