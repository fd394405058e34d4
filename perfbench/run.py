#!/usr/bin/env python3
"""Build and run the vcpsim benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload churn-saturated --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, default seed

The first call configures and builds perfbench/ (the simulator
libraries from src/ plus perfbench/vcpbench.cc) as a Release tree in
.bench_build/perfbench and refuses to measure a Debug, sanitizer,
VCP_TRACE_DISABLED or VCP_TELEMETRY_DISABLED tree.  Each workload
then runs in its own vcpbench process, so peak RSS and set-up time
belong to that workload alone.  The exporter files that
dayops-fabric-observed writes are validated with
tools/check_trace_json.py and tools/check_metrics.py.

With --workload, the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).  Exit status is 0 when
a result was printed, non-zero when the build or a run could not
produce one.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "vcpbench")

WORKLOADS = [
    "churn-saturated",
    "dayops-fabric-observed",
    "federation-threads",
]

# The seed used while the benchmark was written.  The held-out seed,
# 7919, was not; re-check a claimed gain with --seed 7919.
DEFAULT_SEED = 1

# Per-run limit on one vcpbench process (the build is not included).
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cache_entries(path):
    entries = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith(("#", "//")) or "=" not in line:
                continue
            key, value = line.split("=", 1)
            entries[key.split(":", 1)[0]] = value
    return entries


def build_refusal(cache):
    """Why the tree must not be measured, or None."""
    why = []
    bt = cache.get("CMAKE_BUILD_TYPE", "")
    if bt not in ("Release", "RelWithDebInfo"):
        why.append(f"build type '{bt or 'unset'}' is not Release")
    flags = " ".join(v for k, v in cache.items()
                     if k.startswith("CMAKE_CXX_FLAGS")
                     or k.endswith("LINKER_FLAGS"))
    if "-fsanitize" in flags:
        why.append("sanitizer flags")
    for opt in ("VCP_TRACE_DISABLED", "VCP_TELEMETRY_DISABLED",
                "VCP_SANITIZE_THREAD"):
        if cache.get(opt, "OFF").upper() in ("ON", "1", "TRUE", "YES"):
            why.append(f"{opt}=ON")
    return "; ".join(why) or None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"run.py: simulator sources not found under {ROOT}/src")
        return False
    cache_path = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache_path):
        cfg = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            log("run.py: cmake configure failed")
            return False
    refusal = build_refusal(cache_entries(cache_path))
    if refusal:
        log(f"run.py: refusing to measure {BUILD}: {refusal}")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "vcpbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("run.py: build failed")
        return False
    return os.path.isfile(BINARY)


def check_exports(workload):
    """Validate the files the observed workload exported."""
    if workload != "dayops-fabric-observed":
        return []
    prefix = os.path.join(OUT, workload)
    tools = os.path.join(ROOT, "tools")
    checks = [
        [sys.executable, os.path.join(tools, "check_trace_json.py"),
         prefix + ".trace.json"],
        [sys.executable, os.path.join(tools, "check_metrics.py"),
         prefix + ".metrics.ndjson", "--prom",
         prefix + ".metrics.ndjson.prom"],
    ]
    problems = []
    for cmd in checks:
        r = subprocess.run(cmd, capture_output=True, text=True)
        if r.returncode != 0:
            problems.append(f"{os.path.basename(cmd[1])}: "
                            f"{(r.stdout + r.stderr).strip()[:300]}")
    return problems


def run_workload(workload, seed, seconds, trace):
    """Run one workload in its own vcpbench process; returns the result
    dict (with an "info" key) or None."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", OUT]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
        return None
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log(f"run.py: {workload} exited with {r.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"run.py: {workload} printed no result")
        return None
    for line in lines[:-1]:
        print(line)
    problems = check_exports(workload)
    if problems:
        result["correct"] = False
        result["failed"] = result["attempted"]
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for name, m in result["metrics"].items():
        print(f"  {name:38s} {m['value']:18.6f} {m['unit']}")
    info = result["info"]
    print(f"{workload}: output checks "
          f"{'passed' if result['correct'] else 'FAILED'}; attempted "
          f"{result['attempted']} ops, failed {result['failed']}; "
          f"build {info['build_type']}, g++ {info['compiler']}, "
          f"nproc {info['nproc']}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t0 = time.monotonic()
    if not build():
        return 1
    log(f"run.py: build ready in {time.monotonic() - t0:.1f} s")

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
        if result is None:
            return 1
        result.pop("info")
        print(json.dumps(result))
        return 0

    results = {}
    for w in WORKLOADS:
        result = run_workload(w, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        result.pop("info")
        results[w] = result
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
