#include "obs/snapshot.h"

#include <cstdio>

namespace gstream {
namespace obs {

namespace {

// Instrument names are ASCII path-like identifiers; stay safe anyway.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string U64(uint64_t v) { return std::to_string(v); }

std::string Double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// One histogram as a JSON object (the inner {...} of the header's schema).
std::string HistogramJson(const HistogramSnapshot& h) {
  std::string out = "{";
  out += "\"count\": " + U64(h.count);
  out += ", \"sum\": " + U64(h.sum);
  out += ", \"max\": " + U64(h.max);
  out += ", \"mean\": " + Double(h.Mean());
  out += ", \"p50\": " + U64(h.ValueAtPercentile(0.50));
  out += ", \"p90\": " + U64(h.ValueAtPercentile(0.90));
  out += ", \"p99\": " + U64(h.ValueAtPercentile(0.99));
  out += ", \"p999\": " + U64(h.ValueAtPercentile(0.999));
  out += "}";
  return out;
}

}  // namespace

std::string SnapshotJson(const RegistrySnapshot& snapshot,
                         const std::string& line_prefix) {
  const std::string nl = "\n" + line_prefix;
  std::string out = "{";
  out += nl + "  \"schema\": \"gstream-obs-v1\",";
  out += nl + "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "" : ",";
    out += nl + "    \"" + JsonEscape(name) + "\": " + U64(value);
    first = false;
  }
  out += (first ? "" : nl + "  ") + std::string("},");
  out += nl + "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out += first ? "" : ",";
    out += nl + "    \"" + JsonEscape(name) + "\": " + HistogramJson(h);
    first = false;
  }
  out += (first ? "" : nl + "  ") + std::string("}");
  out += nl + "}";
  return out;
}

std::string CurrentSnapshotJson(const std::string& line_prefix) {
  return SnapshotJson(Registry::Get().Snapshot(), line_prefix);
}

}  // namespace obs
}  // namespace gstream
