#!/usr/bin/env python3
"""End-to-end benchmark of the gstream ingest pipeline.

    python3 perfbench/run.py --workload <firehose|gsum_replay|durable_topk>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the benchmark binary twice from source under
.bench_build/ (once as configured by default, once with -DGSTREAM_OBS=OFF
-DGSTREAM_FAULTS=OFF), runs one workload, checks its outputs, and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of an untraced run.  --trace 1
reports the per-layer metrics: pipeline counters, isolated stage timings,
span self times from a traced repeat of the run, and the instrument overhead
measured against the uninstrumented build.  README.md describes the
workloads and every metric.  Exits non-zero when a build fails, a gate
fails, or the binary crashes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("firehose", "gsum_replay", "durable_topk")
# Two builds of one binary: instruments compiled in (the default build)
# and compiled out, for obs.off_overhead_frac.
BUILDS = {
    "obs_on": [],
    "obs_off": ["-DGSTREAM_OBS=OFF", "-DGSTREAM_FAULTS=OFF"],
}
RUN_TIMEOUT_S = 170

# Span categories the benchmark records around its calls into the library
# ("bench" marks the root span of one answer cycle).
SPAN_LAYERS = ("stream", "engine", "core", "persist")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(1)


def build(name, flags):
    """Configures (once) and builds the binary; returns its path."""
    build_dir = os.path.join(BUILD_DIR, name)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + flags
        if subprocess.run(configure, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure of the %s build failed" % name)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", build_dir, "--target",
                       "gstream_perfbench", "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build of the %s build failed" % name)
    return os.path.join(build_dir, "gstream_perfbench")


def run_binary(exe, workload, seed, seconds, mode, run_dir, setups=3):
    """Runs the binary once and returns its parsed result line."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode, "--dir", run_dir,
           "--setups", str(setups)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out: " + " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("benchmark binary exited with %d: %s" % (proc.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    for reason in result["failures"]:
        log("perfbench: gate failed: " + reason)
    return result


def span_self_ns(trace_file):
    """Self time per span category on the thread that ran the cycles.

    A span's self time is its duration minus the durations of its direct
    children (spans nested inside it on the same thread).
    """
    with open(trace_file) as f:
        events = json.load(f)["traceEvents"]
    roots = [e for e in events if e["cat"] == "bench"]
    if not roots:
        return {}
    tid = roots[0]["tid"]
    spans = sorted((e for e in events if e["tid"] == tid),
                   key=lambda e: (e["ts"], -e["dur"]))
    stack = []  # [end_us, record] of the open ancestors
    records = []
    for e in spans:
        while stack and stack[-1][0] <= e["ts"]:
            stack.pop()
        if stack:
            stack[-1][1]["children"] += e["dur"]
        record = {"cat": e["cat"], "dur": e["dur"], "children": 0.0}
        records.append(record)
        stack.append([e["ts"] + e["dur"], record])
    self_ns = {}
    for r in records:
        self_ns[r["cat"]] = (self_ns.get(r["cat"], 0.0) +
                             1000.0 * (r["dur"] - r["children"]))
    return self_ns


def layer_metrics(traced, untraced_off):
    """Per-layer figures of a --mode layers run plus the uninstrumented run."""
    values = dict(traced["layers"])
    raw = traced["raw"]
    untraced_ns = raw["ns_per_update"]
    traced_ns = raw["traced_ns_per_update"]
    self_ns = span_self_ns(os.path.join(ROOT, raw["trace_file"]))
    traced_updates = max(1, raw["traced_updates"])
    layer_ns = sum(self_ns.get(c, 0.0) for c in self_ns if c != "bench")
    values["trace.residual_frac"] = (
        1.0 - (layer_ns / traced_updates) / untraced_ns)
    values["trace.overhead_frac"] = traced_ns / untraced_ns - 1.0
    for layer in SPAN_LAYERS:
        values["trace.self_frac." + layer] = (
            self_ns.get(layer, 0.0) / traced_updates / traced_ns)
    values["obs.off_overhead_frac"] = (
        untraced_ns / untraced_off["raw"]["ns_per_update"] - 1.0)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # BENCHMARK.json names every metric with its unit.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units_of = {section: {m["name"]: m["unit"] for m in spec[section]}
                for section in ("end_to_end", "per_layer")}

    exes = {name: build(name, flags) for name, flags in BUILDS.items()}
    run_dir = os.path.join(BUILD_DIR, "run", args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    rel_run_dir = os.path.relpath(run_dir, ROOT)
    os.chdir(ROOT)

    if args.trace == 0:
        results = [run_binary(exes["obs_on"], args.workload, args.seed,
                              args.seconds, "e2e", rel_run_dir)]
        values, units = results[0]["e2e"], units_of["end_to_end"]
    else:
        # The traced run repeats the pipeline; half the time each keeps the
        # whole run near the untraced one's length.
        half = args.seconds / 2.0
        traced = run_binary(exes["obs_on"], args.workload, args.seed, half,
                            "layers", rel_run_dir)
        off = run_binary(exes["obs_off"], args.workload, args.seed, half,
                         "e2e", rel_run_dir, setups=1)
        results = [traced, off]
        values, units = layer_metrics(traced, off), units_of["per_layer"]

    missing = [name for name in units if name not in values]
    if missing:
        fail("benchmark binary did not report " + ", ".join(missing))
    host = dict(results[0]["host"], workload=args.workload, seed=args.seed)
    print("host: " + json.dumps(host, sort_keys=True))
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
