#!/usr/bin/env python3
"""Builds the SERD benchmark harness and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload serve-shared|serve-churn \
        --seed N --seconds S --trace 0|1 [--record DIR]

The first run configures and builds perfbench/ (which compiles the
repository's libraries from src/) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs rebuild only what changed. The harness
writes a full run report (metrics, work-identity counts, samples, failed
checks) into DIR, by default <build dir>/runs; compare.py reads those.
The last line of standard output is the run's result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit code 0 only when every operation and check of the run passed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-shared", "serve-churn")
# A run must end within 180 s; the harness is stopped before that.
RUN_TIMEOUT_S = 170


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(out):
    """Configures (once) and builds the harness; returns its path or None."""
    cmake_dir = os.path.join(out, "perfbench")
    os.makedirs(cmake_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j",
                  str(min(4, os.cpu_count() or 1))])
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                shutil.rmtree(cmake_dir, ignore_errors=True)
                print(f"build failed; see {log_path}", file=sys.stderr)
                return None
    return os.path.join(cmake_dir, "serd_perfbench")


def program_digest():
    """SHA-256 over the sources of the program and the benchmark."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record", help="directory for the run report")
    args = parser.parse_args()

    out = build_root()
    binary = build(out)
    if binary is None:
        return 1
    record = os.path.abspath(args.record or os.path.join(out, "runs"))
    os.makedirs(record, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    report = os.path.join(
        record, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                f"{stamp}-{os.getpid()}.json")
    work = os.path.join(out, "work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--report", report]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"{args.workload}: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not os.path.exists(report):
        print(f"{args.workload}: the harness wrote no report (exit {code})",
              file=sys.stderr)
        return 1

    with open(report) as f:
        data = json.load(f)
    got = {name: m["unit"] for name, m in data["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        print(f"{args.workload}: metrics differ from BENCHMARK.json: "
              f"{sorted(set(got.items()) ^ set(want.items()))}",
              file=sys.stderr)
        return 1
    data["program_digest"] = program_digest()
    with open(report, "w") as f:
        json.dump(data, f, indent=1)
    for failure in data["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({key: data[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if data["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
