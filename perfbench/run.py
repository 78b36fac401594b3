#!/usr/bin/env python3
"""Build the benchmark driver from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds
perfbench/ (the library under src/ plus driver.cpp, optimised) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only rebuild what changed.  Build output goes to stderr.  The driver's
result is checked against BENCHMARK.json (metric names and units for the
chosen mode) and printed as the last line of stdout:

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

Any build failure, driver failure or malformed result exits non-zero
without printing a result.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src").is_dir():
        fail("library sources (src/) not found next to perfbench/")
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (out / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(out), "--parallel", jobs]):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step failed: {err}")
        if done.returncode != 0:
            fail(f"build step exited {done.returncode}: {' '.join(cmd)}")
    driver = out / "perfbench_driver"
    if not driver.is_file():
        fail("build produced no driver")
    return driver


def check_result(result, expected):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("driver result has the wrong keys")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(expected):
        fail(f"metrics {sorted(metrics)} do not match {sorted(expected)}")
    for name, entry in metrics.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            fail(f"metric {name} has no finite value")
        if entry.get("unit") != expected[name] or set(entry) != {"value",
                                                                "unit"}:
            fail(f"metric {name} has the wrong unit or keys")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload '{args.workload}'")
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}

    out = build_dir()
    driver = build(out)
    scratch = out / "scratch"
    cmd = [str(driver), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--scratch", str(scratch)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=args.seconds + RUN_GRACE_S, check=False,
                              text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail(f"driver failed: {err}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode != 0:
        fail(f"driver exited {done.returncode}")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if not lines:
        fail("driver printed no result")
    try:
        result = json.loads(lines[-1])
    except ValueError as err:
        fail(f"driver result is not JSON: {err}")
    check_result(result, expected)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
