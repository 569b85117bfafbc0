#!/usr/bin/env python3
"""Builds the benchmark executable from source and runs one workload.

Run from the root of a kglink source tree:

    python3 perfbench/run.py --workload hot_repeat --seed 1 --seconds 9 --trace 0

The executable is built under .bench_build/perfbench (configured once, then
rebuilt incrementally on every run). Its output is passed through; the last
line is one JSON object with the keys correct, attempted, failed and metrics,
whose metric names and units are checked against BENCHMARK.json
(end_to_end with --trace 0, per_layer with --trace 1). Exits non-zero when
the build fails, the executable fails or times out, an output check fails, or the
metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "kglink_perfbench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_once():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    build = ["cmake", "--build", BUILD_DIR, "--target", "kglink_perfbench",
             "-j", BUILD_JOBS]
    return subprocess.run(build, stdout=sys.stderr).returncode == 0


def build():
    """Builds the executable; a failed build is retried once from scratch."""
    if build_once():
        return True
    log("build failed; retrying in a clean build directory")
    shutil.rmtree(BUILD_DIR, ignore_errors=True)
    return build_once()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error message, or None when `line` is a valid result."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(result)}"
    expected = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"extra {extra}, or units differ"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(
            BUILD_DIR, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"kglink_perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"kglink_perfbench failed with exit code {proc.returncode}")
        return 1
    error = check_result(lines[-1], args.trace)
    if error is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(error)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log("output check failed")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
