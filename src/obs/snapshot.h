// The exporter for RegistrySnapshot: a structured JSON block (embedded in
// BENCH_sketch.json and dumped by the tools' --stats=json flag; the
// tools/obs_dump pretty-printer reads it back).
//
// JSON schema ("gstream-obs-v1", stable key order -- maps are sorted):
//
//   {
//     "schema": "gstream-obs-v1",
//     "counters": {"persist/ckpt_saves": 12, ...},
//     "histograms": {
//       "engine/producer_stall_ns": {"count": n, "sum": s, "max": m,
//         "mean": x, "p50": v, "p90": v, "p99": v, "p999": v}, ...
//     }
//   }
//
// Percentiles come from HistogramSnapshot::ValueAtPercentile, so
// p50 <= p90 <= p99 <= p999 <= max by construction; the bench smoke CI
// asserts exactly that ordering on the exported block.

#ifndef GSTREAM_OBS_SNAPSHOT_H_
#define GSTREAM_OBS_SNAPSHOT_H_

#include <string>

#include "obs/metrics.h"

namespace gstream {
namespace obs {

// The whole snapshot as a JSON object.  Every line after the first is
// prefixed with `line_prefix`, so the block can be embedded at any
// indentation inside a larger document.
std::string SnapshotJson(const RegistrySnapshot& snapshot,
                         const std::string& line_prefix = "");

// Convenience: Registry::Get().Snapshot() serialized.
std::string CurrentSnapshotJson(const std::string& line_prefix = "");

}  // namespace obs
}  // namespace gstream

#endif  // GSTREAM_OBS_SNAPSHOT_H_
