#!/usr/bin/env python3
"""The CAFQA benchmark: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload bo_default --seed 1 --seconds 30 --trace 0

Run from the root of a repository checkout. The first run configures
and builds `perfbench/` (the library from `src/` plus the benchmark
program) under `$CARGO_TARGET_DIR` (default `.bench_build`); later runs
reuse the build. The program's raw observations become metrics and
correctness checks in `harness.py`. Every metric prints as one line
with its unit and sample count; the last line of stdout is the result
object. With `--trace 1` the per-layer metrics are printed instead of
the end-to-end ones, and the spans are written as Chrome Trace Event
JSON to `<build dir>/traces/`.

Exit status: 0 when every check passed, 1 on any violation, 2 when the
benchmark cannot run (no sources to build, build failure, bad
arguments, the program crashed or timed out).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402

# Wall-clock cap on the program itself; the run must end within 180 s.
PROGRAM_TIMEOUT_S = 170
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def declared_metrics():
    """Metric names of BENCHMARK.json, in declared order."""
    path = REPO_ROOT / "BENCHMARK.json"
    if not path.is_file():
        die("BENCHMARK.json not found at the checkout root")
    spec = json.loads(path.read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in end_to_end + per_layer:
        if not harness.valid_metric_name(name):
            die("invalid metric name %r in BENCHMARK.json" % name)
    return [m["name"] for m in spec["workloads"]], end_to_end, per_layer


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = REPO_ROOT / base
    return base


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not (REPO_ROOT / "src" / "core" / "pipeline.hpp").is_file():
        die("no CAFQA sources next to perfbench/ - run from a repository checkout")
    out = build_dir() / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(BUILD_JOBS)])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            die("build step failed: " + " ".join(step))
    binary = out / "cafqa_perfbench"
    if not binary.is_file():
        die("build produced no cafqa_perfbench")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads, end_to_end, per_layer = declared_metrics()
    if args.workload not in workloads:
        die("unknown workload %r (have: %s)" % (args.workload, ", ".join(workloads)))
    binary = build()

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("cafqa_perfbench did not finish within %d s" % PROGRAM_TIMEOUT_S)
    if done.returncode != 0 or not done.stdout.strip():
        die("cafqa_perfbench failed with exit code %d" % done.returncode)
    raw = json.loads(done.stdout.strip().splitlines()[-1])

    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / ("%s-seed%d.json" % (args.workload, args.seed))
        path.write_text(json.dumps(harness.chrome_trace(raw)))
        print("trace written to %s" % path)

    lines, result = harness.result_line(raw, args.trace, end_to_end, per_layer)
    print("workload %s seed %d (%s)" % (args.workload, args.seed,
                                        "traced" if args.trace else "untraced"))
    for line in lines:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
