// Entry point of the end-to-end benchmark binary: set-up, the timed run,
// the traced run and the isolated stage timings of one workload, printed
// as one JSON object on the last line of stdout.
//
//   gstream_perfbench --workload <firehose|gsum_replay|durable_topk>
//                     --seed <n> --seconds <s> --mode <e2e|layers>
//                     --dir <scratch dir> [--setups <n>]
//
// Exit status: 0 when every correctness gate held, 1 when one failed (the
// result line still prints, with "correct": false), 2 on a usage error.

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "perfbench.h"
#include "util/simd/simd_dispatch.h"

namespace gstream {
namespace perfbench {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second) ? metrics[i].second : 0.0;
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].first + "\": " + buf;
  }
  return out + "}";
}

std::string CpuModel() {
  FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[256];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* colon = std::strchr(line, ':');
    if (colon != nullptr) {
      model = colon + 1;
      model.erase(0, model.find_first_not_of(" \t"));
      while (!model.empty() && (model.back() == '\n' || model.back() == ' ')) {
        model.pop_back();
      }
    }
    break;
  }
  std::fclose(f);
  return model;
}

// The filesystem the run's files (and checkpoints) land on.
std::string FsType(const std::string& dir) {
  struct statfs st;
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Nearest-rank percentile of a non-empty sample.
double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

// Throughput as the median over kWindows stretches of consecutive answer
// cycles (each ~1/kWindows of the timed region), so one disturbed stretch
// does not move the figure.
constexpr size_t kWindows = 5;

double UpdatesPerSec(const Tally& t) {
  const size_t n = t.cycle_ms.size();
  std::vector<double> rates;
  for (size_t w = 0; w < std::min(kWindows, n); ++w) {
    double ms = 0.0;
    uint64_t updates = 0;
    for (size_t i = w * n / kWindows; i < (w + 1) * n / kWindows; ++i) {
      ms += t.cycle_ms[i];
      updates += t.cycle_updates[i];
    }
    rates.push_back(ms > 0.0 ? static_cast<double>(updates) * 1e3 / ms : 0.0);
  }
  return rates.empty() ? 0.0 : Median(rates);
}

double NsPerUpdate(const Tally& t) {
  return t.updates == 0 ? 0.0
                        : static_cast<double>(t.wall_ns) /
                              static_cast<double>(t.updates);
}

double Mean(uint64_t total, uint64_t count, double scale) {
  return count == 0 ? 0.0
                    : static_cast<double>(total) / static_cast<double>(count) /
                          scale;
}

// Registry histogram deltas over one run (instrumented builds only).
struct HistogramWindow {
  explicit HistogramWindow(const char* name)
      : hist(obs::Registry::Get().GetHistogram(name)),
        before(hist->Snapshot()) {}
  obs::HistogramSnapshot Delta() const {
    obs::HistogramSnapshot now = hist->Snapshot();
    now.SubtractBaseline(before);
    return now;
  }
  obs::Histogram* hist;
  obs::HistogramSnapshot before;
};

Metrics EndToEnd(const Tally& t, double setup_s, double peak_rss_mb) {
  const double p50 = t.cycle_ms.empty() ? 0.0 : Percentile(t.cycle_ms, 0.5);
  const double tail =
      t.cycle_ms.empty() ? 0.0 : Percentile(t.cycle_ms, t.tail_p);
  return {
      {"updates_per_sec", UpdatesPerSec(t)},
      {"setup_s", setup_s},
      {"peak_rss_mb", peak_rss_mb},
      {"sketch_bytes", static_cast<double>(t.sketch_bytes)},
      {"answer_cycle_ms_p50", p50},
      {"answer_cycle_ms_tail", tail},
  };
}

// Per-layer figures the pipeline itself measured (engine counters, the
// stream and persist calls on the answer path, decode timings).
Metrics PipelineLayers(const Tally& t, const obs::HistogramSnapshot& sink_ns,
                       const obs::HistogramSnapshot& quiesce_ns) {
  uint64_t max_shard = 0;
  uint64_t sum_shard = 0;
  for (const uint64_t u : t.shard_updates) {
    max_shard = std::max(max_shard, u);
    sum_shard += u;
  }
  const double mean_shard =
      t.shard_updates.empty()
          ? 0.0
          : static_cast<double>(sum_shard) /
                static_cast<double>(t.shard_updates.size());
  // The worker sink histogram samples one chunk in kBatchSampleEvery; its
  // mean times every chunk applied estimates the workers' busy time.
  const double engine_live_ns =
      static_cast<double>(t.engine_ns) *
      static_cast<double>(std::max<size_t>(t.shard_updates.size(), 1));
  const double sink_busy =
      engine_live_ns <= 0.0
          ? 0.0
          : sink_ns.Mean() * static_cast<double>(t.chunks) / engine_live_ns;
  return {
      {"stream.load_ns_per_update", Mean(t.load_ns, t.updates, 1.0)},
      {"stream.file_bytes", static_cast<double>(t.file_bytes)},
      {"engine.producer_stall_frac",
       Mean(t.producer_stall_ns, t.submit_ns, 1.0)},
      {"engine.producer_stalls", Mean(t.producer_stalls, t.engines, 1.0)},
      {"engine.ring_highwater_max", static_cast<double>(t.ring_highwater)},
      {"engine.shard_update_skew",
       mean_shard == 0.0 ? 0.0
                         : static_cast<double>(max_shard) / mean_shard - 1.0},
      {"engine.sink_busy_frac", sink_busy},
      {"engine.drain_ms", Mean(t.drain_ns, t.engines, 1e6)},
      {"engine.updates_shed", static_cast<double>(t.updates_shed)},
      {"engine.merge_ms", Mean(t.merge_ns, t.merges, 1e6)},
      {"core.estimate_ms", Mean(t.estimate_ns, t.estimates, 1e6)},
      {"core.cover_ms", Mean(t.cover_ns, t.covers, 1e6)},
      {"persist.quiesce_ms", quiesce_ns.Mean() / 1e6},
      {"persist.write_ms", Mean(t.write_ns, t.writes, 1e6)},
      {"persist.ckpt_bytes", static_cast<double>(t.write_bytes)},
      {"failed_frac", Mean(t.failed, t.attempted, 1.0)},
      {"gsum_rel_error", t.gsum_rel_error},
      {"hh_recall", t.hh_recall},
      {"answer_cycle.samples", static_cast<double>(t.cycle_ms.size())},
      {"answer_cycle.tail_pct", 100.0 * t.tail_p},
  };
}

int Usage() {
  std::fprintf(stderr,
               "usage: gstream_perfbench --workload <name> --seed <n> "
               "--seconds <s> --mode <e2e|layers> --dir <dir> "
               "[--setups <n>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  std::string mode = "e2e";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--mode") {
      mode = value;
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--setups") {
      args.setups = std::atoi(value.c_str());
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.dir.empty() || args.seconds <= 0.0 ||
      args.setups < 1 || (mode != "e2e" && mode != "layers")) {
    return Usage();
  }
  args.layers = mode == "layers";
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::vector<double> setup_s;
  for (int i = 0; i < args.setups; ++i) {
    const uint64_t t0 = NowNs();
    workload->Setup(args);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  HistogramWindow sink_window("engine/sink_batch_ns");
  HistogramWindow quiesce_window("persist/ckpt_quiesce_ns");
  Tally tally = workload->Run(args.seconds);
  const double peak_rss_mb = PeakRssMb();
  const obs::HistogramSnapshot sink_ns = sink_window.Delta();
  const obs::HistogramSnapshot quiesce_ns = quiesce_window.Delta();

  Metrics layers;
  double traced_ns_per_update = 0.0;
  uint64_t traced_updates = 0;
  std::string trace_file;
  if (args.layers) {
    obs::TraceLog& log = obs::TraceLog::Get();
    log.Clear();
    log.Enable();
    const Tally traced = workload->Run(args.seconds);
    log.Disable();
    traced_ns_per_update = NsPerUpdate(traced);
    traced_updates = traced.updates;
    trace_file = args.dir + "/trace_" + args.workload + ".json";
    tally.Check(log.Write(trace_file), "write trace file " + trace_file);
    log.Clear();
    tally.attempted += traced.attempted;
    tally.failed += traced.failed;
    tally.failures.insert(tally.failures.end(), traced.failures.begin(),
                          traced.failures.end());
    layers = PipelineLayers(tally, sink_ns, quiesce_ns);
    const Metrics isolated = workload->Layers();
    layers.insert(layers.end(), isolated.begin(), isolated.end());
    layers.push_back({"host.hardware_threads",
                      static_cast<double>(std::thread::hardware_concurrency())});
    layers.push_back({"host.isa_tier",
                      static_cast<double>(static_cast<int>(
                          simd::ActiveIsaTier()))});
  }

  const bool correct = tally.failed == 0;
  std::string failures = "[";
  for (size_t i = 0; i < tally.failures.size(); ++i) {
    failures += (i == 0 ? "\"" : ", \"") + JsonEscape(tally.failures[i]) +
                "\"";
  }
  failures += "]";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"failures\": %s, \"e2e\": %s, \"layers\": %s, "
      "\"raw\": {\"ns_per_update\": %.6f, \"traced_ns_per_update\": %.6f, "
      "\"updates\": %llu, \"traced_updates\": %llu, "
      "\"trace_file\": \"%s\"}, "
      "\"host\": {\"hardware_threads\": %u, \"cpu_model\": \"%s\", "
      "\"isa_tier\": \"%s\", \"fs_type\": \"%s\", \"obs\": %d, "
      "\"faults\": %d}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed), failures.c_str(),
      MetricsJson(EndToEnd(tally, Median(setup_s), peak_rss_mb)).c_str(),
      MetricsJson(layers).c_str(), NsPerUpdate(tally), traced_ns_per_update,
      static_cast<unsigned long long>(tally.updates),
      static_cast<unsigned long long>(traced_updates), JsonEscape(trace_file).c_str(), std::thread::hardware_concurrency(),
      JsonEscape(CpuModel()).c_str(),
      simd::IsaTierName(simd::ActiveIsaTier()),
      JsonEscape(FsType(args.dir)).c_str(), GSTREAM_OBS_ENABLED,
      GSTREAM_FAULTS_ENABLED);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace gstream

int main(int argc, char** argv) {
  return gstream::perfbench::Main(argc, argv);
}
