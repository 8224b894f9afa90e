// Pretty-printer for the observability artifacts this library writes.
//
//   obs_dump --mode=snapshot stats.json    # registry snapshot (obs JSON)
//   obs_dump --mode=trace trace.json       # chrome trace-event file
//   obs_dump file.json                     # mode inferred from the schema
//
// `snapshot` renders an aligned instrument table (counters, then
// histograms with count/mean/percentiles); `trace` renders one line per
// span -- name, category, tid, start and duration in ms -- sorted by start
// time, plus a per-category rollup.  Both modes parse with the bundled
// strict JSON reader (src/obs/json_min.h): a malformed or truncated file is
// reported with its byte offset and exits 1, so the tool doubles as a
// validator for the exporters (the obs tests and the CI bench smoke lean on
// that).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "obs/json_min.h"
#include "persist/sketch_io.h"

namespace gstream {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "obs_dump: %s\n", message.c_str());
  return 1;
}

double NumberOr(const obs::JsonValue* v, double fallback) {
  return v != nullptr && v->is_number() ? v->number : fallback;
}

int DumpSnapshot(const obs::JsonValue& root) {
  if (!root.is_object()) return Fail("snapshot root is not an object");
  const obs::JsonValue* counters = root.Find("counters");
  const obs::JsonValue* histograms = root.Find("histograms");
  size_t width = 12;
  for (const obs::JsonValue* section : {counters, histograms}) {
    if (section == nullptr || !section->is_object()) continue;
    for (const auto& [name, value] : section->object) {
      (void)value;
      width = std::max(width, name.size());
    }
  }
  const int w = static_cast<int>(width);
  if (counters != nullptr && counters->is_object()) {
    std::printf("counters:\n");
    for (const auto& [name, value] : counters->object) {
      std::printf("  %-*s %20.0f\n", w, name.c_str(), NumberOr(&value, 0));
    }
  }
  if (histograms != nullptr && histograms->is_object()) {
    std::printf("histograms:%*s %12s %12s %12s %12s %12s %12s\n", w - 10, "",
                "count", "mean", "p50", "p90", "p99", "max");
    for (const auto& [name, h] : histograms->object) {
      std::printf("  %-*s %12.0f %12.1f %12.0f %12.0f %12.0f %12.0f\n", w,
                  name.c_str(), NumberOr(h.Find("count"), 0),
                  NumberOr(h.Find("mean"), 0), NumberOr(h.Find("p50"), 0),
                  NumberOr(h.Find("p90"), 0), NumberOr(h.Find("p99"), 0),
                  NumberOr(h.Find("max"), 0));
    }
  }
  return 0;
}

int DumpTrace(const obs::JsonValue& root) {
  const obs::JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Fail("no traceEvents array (not a chrome trace-event file?)");
  }
  struct Row {
    std::string name, cat;
    double ts_us = 0, dur_us = 0, tid = 0;
  };
  std::vector<Row> rows;
  rows.reserve(events->array.size());
  for (const obs::JsonValue& e : events->array) {
    if (!e.is_object()) return Fail("traceEvents entry is not an object");
    Row row;
    const obs::JsonValue* name = e.Find("name");
    const obs::JsonValue* cat = e.Find("cat");
    row.name = name != nullptr && name->is_string() ? name->string : "?";
    row.cat = cat != nullptr && cat->is_string() ? cat->string : "?";
    row.ts_us = NumberOr(e.Find("ts"), 0);
    row.dur_us = NumberOr(e.Find("dur"), 0);
    row.tid = NumberOr(e.Find("tid"), 0);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.ts_us < b.ts_us; });
  std::printf("%-28s %-10s %5s %14s %14s\n", "span", "category", "tid",
              "start_ms", "dur_ms");
  for (const Row& r : rows) {
    std::printf("%-28s %-10s %5.0f %14.3f %14.3f\n", r.name.c_str(),
                r.cat.c_str(), r.tid, r.ts_us / 1000.0, r.dur_us / 1000.0);
  }
  // Per-span-name rollup: count and total duration, the profile view.
  std::vector<std::pair<std::string, std::pair<size_t, double>>> totals;
  for (const Row& r : rows) {
    auto it = std::find_if(totals.begin(), totals.end(),
                           [&](const auto& t) { return t.first == r.name; });
    if (it == totals.end()) {
      totals.push_back({r.name, {1, r.dur_us}});
    } else {
      ++it->second.first;
      it->second.second += r.dur_us;
    }
  }
  std::printf("\n%-28s %8s %14s\n", "span", "count", "total_ms");
  for (const auto& [name, t] : totals) {
    std::printf("%-28s %8zu %14.3f\n", name.c_str(), t.first,
                t.second / 1000.0);
  }
  return 0;
}

int Run(int argc, char** argv) {
  std::string mode = "auto";
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--mode=", 7) == 0) {
      mode = a + 7;
    } else if (std::strncmp(a, "--", 2) == 0) {
      return 2 * Fail(std::string("unknown flag ") + a);
    } else if (path.empty()) {
      path = a;
    } else {
      return 2 * Fail("more than one input file");
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: obs_dump [--mode=snapshot|trace] FILE.json\n");
    return 2;
  }
  LoadStatus status;
  const std::optional<std::string> bytes = ReadFileBytes(path, &status);
  if (!bytes.has_value()) return Fail(status.message);
  std::string error;
  const std::optional<obs::JsonValue> root = obs::ParseJson(*bytes, &error);
  if (!root.has_value()) return Fail(path + ": " + error);
  if (mode == "auto") {
    mode = root->Find("traceEvents") != nullptr ? "trace" : "snapshot";
  }
  if (mode == "snapshot") return DumpSnapshot(*root);
  if (mode == "trace") return DumpTrace(*root);
  return 2 * Fail("unknown --mode=" + mode);
}

}  // namespace
}  // namespace gstream

int main(int argc, char** argv) { return gstream::Run(argc, argv); }
