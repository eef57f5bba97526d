#!/usr/bin/env python3
"""Builds and runs the repo benchmark from the root of a checkout.

    python3 perfbench/run.py --workload real_fp16 --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (the rocqr libraries from src/ plus the
rocqr_perfbench binary) into .bench_build/perfbench, runs one workload, and
prints the binary's report; the last line is the JSON result. The committed
tiled and TSQR makespans that paper_phantom must reproduce are read from
BENCH_tiled_qr.json and BENCH_tsqr.json. Exits non-zero, without a result
line, when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
TRACE_DIR = os.path.join(".bench_build", "traces")
WORKLOADS = ("real_fp16", "real_fp32", "paper_phantom", "serve_fleet")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    # Build output goes to stderr: stdout ends with the one result line.
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "rocqr_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "rocqr_perfbench")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def committed_makespans():
    """Six-decimal strings, exactly as the committed bench JSON prints them."""
    tiled = [p["tiled_seconds"] for p in load_json("BENCH_tiled_qr.json")["sweep"]
             if (p["m"], p["n"], p["blocksize"]) == (131072, 32768, 8192)]
    tsqr = [p["dedicated_seconds"] for p in load_json("BENCH_tsqr.json")["sweep"]
            if p["gpus"] == 4]
    if len(tiled) != 1 or len(tsqr) != 1:
        fail("committed tiled/TSQR configurations not found")
    return "%.6f" % tiled[0], "%.6f" % tsqr[0]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_json("BENCHMARK.json")
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    tiled, tsqr = committed_makespans()
    binary = build()

    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", TRACE_DIR, "--expect-tiled", tiled, "--expect-tsqr", tsqr],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        fail("no output (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail("last line is not a result (exit %d)" % proc.returncode)
    if sorted(result["metrics"]) != sorted(expected):
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(result["metrics"]) ^ set(expected)))
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
