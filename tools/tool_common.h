// Shared pieces of the operational tools (tools/*.cc): the `--name=value`
// flag matcher, and the canonical stream that ckpt_ingest and
// sketch_merge regenerate in every process of a job.  One definition of
// that stream is what lets the cross-process kill/resume and shard/reduce
// pins compare runs of different tools.

#ifndef GSTREAM_TOOLS_TOOL_COMMON_H_
#define GSTREAM_TOOLS_TOOL_COMMON_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "stream/generators.h"
#include "stream/stream.h"
#include "util/random.h"

namespace gstream {

// True, with the value in *out, when `arg` is `name=value`.
inline bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

// Zipf 1.1 with 2000 churn pairs and 50000 weight, deterministic in
// `stream_seed`.
inline Stream MakeCanonicalStream(uint64_t stream_seed, uint64_t domain,
                                  size_t items) {
  Rng rng(stream_seed);
  StreamShapeOptions shape;
  shape.churn_pairs = 2000;
  Workload workload =
      MakeZipfWorkload(domain, items, 1.1, 50000, shape, rng);
  return std::move(workload.stream);
}

}  // namespace gstream

#endif  // GSTREAM_TOOLS_TOOL_COMMON_H_
