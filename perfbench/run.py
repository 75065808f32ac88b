#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and
builds perfbench (Release) under .bench_build/; later runs only check that
the build is current. The benchmark's output is passed through; its last
line is the result object {"correct", "attempted", "failed", "metrics"}.
The run exits non-zero, without a result line, when the build fails, the
benchmark fails or times out, or its result does not carry exactly the
metrics BENCHMARK.json lists for the mode. A result whose outputs were
wrong ("correct": false) is printed and also exits non-zero.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_MARGIN_S = 60
WORKLOADS = ("disk_uniform", "file_nearsorted", "cluster_mix")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(env):
    """Configures (once) and builds perfbench; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for the mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # Compiler and benchmark temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        exe = build(env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"build failed: {e}")
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = os.path.join(BUILD_ROOT, "work", tag)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans_out", os.path.join(traces, tag + ".json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True,
                              timeout=args.seconds * 2 + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1] if lines else ""
    if body:
        print("\n".join(body))
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        print(last, file=sys.stderr)
        log(f"benchmark exited {proc.returncode} without a result")
        return proc.returncode or 1
    want = expected_metrics(bool(args.trace))
    if want is not None and set(result["metrics"]) != want:
        log("result metrics differ from BENCHMARK.json: "
            f"missing {sorted(want - set(result['metrics']))}, "
            f"extra {sorted(set(result['metrics']) - want)}")
        return 1
    print(last, flush=True)
    if proc.returncode != 0 or not result["correct"]:
        log("benchmark reported incorrect output")
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
