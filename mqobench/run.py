#!/usr/bin/env python3
"""End-to-end MQO benchmark runner.

Builds the benchmark and the library it drives from the checkout's sources
(into .bench_build/), pins every environment knob the program reads, runs
one workload in its own process, checks that its spill directory is gone
afterwards, and prints the result as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage: python3 mqobench/run.py --workload tpcd-exec --seed 1 --seconds 20 \
           --trace 0
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "mqobench")
RUN_TIMEOUT_S = 170
WORKLOADS = ("tpcd-exec", "dashboard-opt", "session-cache")


def build():
    """Configures once, then (re)builds incrementally. Logs go to stderr."""
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", CMAKE_DIR, "-j", "4"],
                   stdout=sys.stderr, check=True, timeout=800)


def pinned_env(spill_dir, tmp_dir):
    """The process environment with every knob the program reads pinned:
    collected statistics, no budget override, spills and temp files in the
    run's own directory, a serial optimizer, compression and zone maps on,
    observability off."""
    env = dict(os.environ)
    for knob in ("MQO_MAT_BUDGET_BYTES", "MQO_TRACE_FILE"):
        env.pop(knob, None)
    env.update({
        "MQO_STATS_MODE": "collected",
        "MQO_SPILL_DIR": spill_dir,
        "MQO_OPT_THREADS": "1",
        "MQO_NUM_COMPRESSION": "1",
        "MQO_ZONE_MAPS": "1",
        "MQO_TRACE": "0",
        "MQO_METRICS": "0",
        "TMPDIR": tmp_dir,
    })
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    run_dir = os.path.join(
        BUILD, "run", f"{args.workload}-{args.seed}-{os.getpid()}")
    spill_dir = os.path.join(run_dir, "spill")
    tmp_dir = os.path.join(run_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spill-dir", spill_dir]
    if args.trace:
        trace_dir = os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=pinned_env(spill_dir, tmp_dir))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("benchmark run timed out", file=sys.stderr)
        return 1
    spill_left = os.path.exists(spill_dir)
    shutil.rmtree(run_dir, ignore_errors=True)

    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        print(f"benchmark exited with code {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("malformed result line", file=sys.stderr)
        return 1
    if spill_left:
        print(f"spill directory left behind: {spill_dir}", file=sys.stderr)
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
