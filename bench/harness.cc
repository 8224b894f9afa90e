#include "bench/harness.h"

#include <cinttypes>

#include "util/thread_affinity.h"

namespace gstream {
namespace bench {
namespace {

// Minimal JSON string escaping (names are ASCII identifiers, but stay
// safe for arbitrary input).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void WriteU64Array(FILE* f, const std::vector<uint64_t>& values) {
  std::fputc('[', f);
  for (size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "%s%" PRIu64, i > 0 ? ", " : "", values[i]);
  }
  std::fputc(']', f);
}

}  // namespace

void BenchReport::SetWorkload(size_t updates, uint64_t domain, size_t items,
                              double zipf_exponent) {
  workload_updates_ = updates;
  workload_domain_ = domain;
  workload_items_ = items;
  workload_zipf_ = zipf_exponent;
}

void BenchReport::SetEnvironment(const std::string& isa_tier,
                                 const std::string& cpu_model) {
  isa_tier_ = isa_tier;
  cpu_model_ = cpu_model;
}

void BenchReport::SetIngest(const std::string& benchmark,
                            const std::string& overload_policy,
                            const IngestStats& stats) {
  has_ingest_ = true;
  ingest_benchmark_ = benchmark;
  ingest_overload_policy_ = overload_policy;
  ingest_stats_ = stats;
}

void BenchReport::SetScaling(const std::string& benchmark,
                             std::vector<ScalingEntry> entries) {
  scaling_benchmark_ = benchmark;
  scaling_entries_ = std::move(entries);
}

void BenchReport::SetObs(std::string obs_json) {
  obs_json_ = std::move(obs_json);
}

void BenchReport::Add(BenchResult result) {
  results_.push_back(std::move(result));
}

const BenchResult* BenchReport::Find(const std::string& name) const {
  for (const BenchResult& r : results_) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

void BenchReport::AddSpeedup(const std::string& key,
                             const std::string& numerator,
                             const std::string& denominator) {
  const BenchResult* num = Find(numerator);
  const BenchResult* den = Find(denominator);
  if (num == nullptr || den == nullptr || den->updates_per_sec <= 0.0) {
    std::fprintf(stderr, "BenchReport: cannot compute speedup %s (%s / %s)\n",
                 key.c_str(), numerator.c_str(), denominator.c_str());
    return;
  }
  speedups_.emplace_back(key, num->updates_per_sec / den->updates_per_sec);
}

void BenchReport::PrintTable(FILE* out) const {
  std::fprintf(out, "%-36s %14s %10s %14s %12s\n", "benchmark", "updates",
               "seconds", "updates/sec", "space");
  for (const BenchResult& r : results_) {
    std::fprintf(out, "%-36s %14zu %10.4f %14.0f %12zu\n", r.name.c_str(),
                 r.updates, r.seconds, r.updates_per_sec, r.space_bytes);
  }
  for (const auto& [key, value] : speedups_) {
    std::fprintf(out, "%-36s %.2fx\n", key.c_str(), value);
  }
  if (!scaling_entries_.empty()) {
    const double base = scaling_entries_.front().updates_per_sec;
    for (const ScalingEntry& e : scaling_entries_) {
      std::fprintf(out,
                   "scaling/%s t=%zu %24zu %10.4f %14.0f  (%.2fx vs t=1, "
                   "stall_ns=%" PRIu64 ")\n",
                   scaling_benchmark_.c_str(), e.threads, e.updates, e.seconds,
                   e.updates_per_sec,
                   base > 0.0 ? e.updates_per_sec / base : 0.0,
                   e.stats.producer_stall_ns);
    }
  }
}

bool BenchReport::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BenchReport: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"schema\": \"gstream-bench-v1\",\n");
  std::fprintf(f,
               "  \"workload\": {\"updates\": %zu, \"domain\": %" PRIu64
               ", \"items\": %zu, \"zipf_exponent\": %.3f, "
               "\"isa_tier\": \"%s\", \"cpu_model\": \"%s\"},\n",
               workload_updates_, workload_domain_, workload_items_,
               workload_zipf_, JsonEscape(isa_tier_).c_str(),
               JsonEscape(cpu_model_).c_str());
  if (has_ingest_) {
    // The run's labels, then IngestStatsJson's own keys, as one flat
    // object: the stats object's opening brace is dropped.
    std::fprintf(f,
                 "  \"ingest\": {\"benchmark\": \"%s\", "
                 "\"overload_policy\": \"%s\", %s,\n",
                 JsonEscape(ingest_benchmark_).c_str(),
                 JsonEscape(ingest_overload_policy_).c_str(),
                 IngestStatsJson(ingest_stats_).c_str() + 1);
  }
  if (!scaling_entries_.empty()) {
    std::fprintf(f,
                 "  \"scaling\": {\"benchmark\": \"%s\", "
                 "\"hardware_threads\": %u, \"entries\": [\n",
                 JsonEscape(scaling_benchmark_).c_str(), HardwareThreads());
    const double base = scaling_entries_.front().updates_per_sec;
    for (size_t i = 0; i < scaling_entries_.size(); ++i) {
      const ScalingEntry& e = scaling_entries_[i];
      std::fprintf(f,
                   "    {\"threads\": %zu, \"shards\": %zu, \"updates\": %zu, "
                   "\"seconds\": %.6f, \"updates_per_sec\": %.1f, "
                   "\"speedup_vs_1\": %.3f,\n     \"chunks_committed\": %" PRIu64
                   ", \"producer_stalls\": %" PRIu64
                   ", \"producer_stall_ns\": %" PRIu64 ",\n     ",
                   e.threads, e.shards, e.updates, e.seconds, e.updates_per_sec,
                   base > 0.0 ? e.updates_per_sec / base : 0.0,
                   e.stats.chunks_committed, e.stats.producer_stalls,
                   e.stats.producer_stall_ns);
      std::fprintf(f, "\"shard_updates\": ");
      WriteU64Array(f, e.stats.shard_updates);
      // Per-shard throughput is derived here rather than recomputed by
      // every consumer: shard_updates[i] / seconds.
      std::fprintf(f, ", \"shard_updates_per_sec\": [");
      for (size_t s = 0; s < e.stats.shard_updates.size(); ++s) {
        std::fprintf(f, "%s%.1f", s > 0 ? ", " : "",
                     e.seconds > 0.0
                         ? static_cast<double>(e.stats.shard_updates[s]) /
                               e.seconds
                         : 0.0);
      }
      std::fprintf(f, "],\n     \"shard_ring_highwater\": ");
      WriteU64Array(f, e.stats.shard_ring_highwater);
      std::fprintf(f, ",\n     \"producer_updates\": ");
      WriteU64Array(f, e.producer_updates);
      std::fprintf(f, ", \"producer_stalls_each\": ");
      WriteU64Array(f, e.producer_stalls);
      std::fprintf(f, ", \"producer_stall_ns_each\": ");
      WriteU64Array(f, e.producer_stall_ns);
      std::fprintf(f, "}%s\n", i + 1 < scaling_entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]},\n");
  }
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results_.size(); ++i) {
    const BenchResult& r = results_[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"updates\": %zu, \"seconds\": "
                 "%.6f, \"updates_per_sec\": %.1f, \"space_bytes\": %zu",
                 JsonEscape(r.name).c_str(), r.updates, r.seconds,
                 r.updates_per_sec, r.space_bytes);
    if (!r.batch_ns.empty()) {
      std::fprintf(f,
                   ", \"batch_ns\": {\"count\": %" PRIu64 ", \"p50\": %" PRIu64
                   ", \"p90\": %" PRIu64 ", \"p99\": %" PRIu64
                   ", \"p999\": %" PRIu64 ", \"max\": %" PRIu64
                   ", \"mean\": %.1f}",
                   r.batch_ns.count, r.batch_ns.ValueAtPercentile(0.50),
                   r.batch_ns.ValueAtPercentile(0.90),
                   r.batch_ns.ValueAtPercentile(0.99),
                   r.batch_ns.ValueAtPercentile(0.999), r.batch_ns.max,
                   r.batch_ns.Mean());
    }
    std::fprintf(f, "}%s\n", i + 1 < results_.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"speedups\": {\n");
  for (size_t i = 0; i < speedups_.size(); ++i) {
    std::fprintf(f, "    \"%s\": %.3f%s\n",
                 JsonEscape(speedups_[i].first).c_str(), speedups_[i].second,
                 i + 1 < speedups_.size() ? "," : "");
  }
  if (!obs_json_.empty()) {
    std::fprintf(f, "  },\n  \"obs\": %s\n}\n", obs_json_.c_str());
  } else {
    std::fprintf(f, "  }\n}\n");
  }
  const bool ok = std::fclose(f) == 0;
  if (!ok) std::fprintf(stderr, "BenchReport: write to %s failed\n",
                        path.c_str());
  return ok;
}

}  // namespace bench
}  // namespace gstream
