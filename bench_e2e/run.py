#!/usr/bin/env python3
"""Run one workload of the Par-Eclat end-to-end benchmark.

    python3 bench_e2e/run.py --workload sparse-invert --seed 1 --seconds 20 --trace 0

Builds bench_e2e (and the library sources it compiles) into .bench_build/
under the repository root, generates the workload's database from --seed
in a separate process, then runs the measured process on that file alone.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run (and writes its Chrome trace and self-time table
to .bench_build/traces/). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "e2e")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("sparse-invert", "dense-mine", "wide-count")

GEN_TIMEOUT_S = 60
RUN_SLACK_S = 90  # beyond --seconds: reference, cross-check, last round


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def child_env():
    # Keep compiler and library temporaries inside the checkout.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_child(cmd, timeout):
    """Run `cmd` to completion; kill it (and wait) if it overruns."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=child_env())
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{os.path.basename(cmd[0])} {cmd[1]} timed out "
                         f"after {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited with {proc.returncode}")
    return out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "mining.hpp")):
        raise BenchError("library sources (src/) not found next to bench_e2e/")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2e", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout is reserved for the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                          env=child_env()).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def parse_tagged(out, tag):
    for line in out.splitlines():
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    raise BenchError(f"no {tag} line in the benchmark output")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Test-only: shrink |D| (the benchmark's own smoke tests) and corrupt
    # the reference (the negative test: every job must count as failed).
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        raise BenchError("--seed must be >= 0, --seconds and --scale > 0")

    build()
    workdir = os.path.join(ROOT, ".bench_build", "workloads")
    os.makedirs(workdir, exist_ok=True)
    data = os.path.join(workdir, f"{args.workload}-{args.seed}-{os.getpid()}.txt")
    try:
        gen = json.loads(run_child(
            [BINARY, "gen", f"--workload={args.workload}",
             f"--seed={args.seed}", f"--scale={args.scale}", f"--out={data}"],
            GEN_TIMEOUT_S).strip().splitlines()[-1])
        cmd = [BINARY, "trace" if args.trace else "run",
               f"--workload={args.workload}", f"--file={data}",
               f"--minsup={gen['minsup']}", f"--seconds={args.seconds}"]
        if args.trace:
            os.makedirs(TRACE_DIR, exist_ok=True)
            cmd.append(f"--trace-dir={TRACE_DIR}")
        if args.corrupt_reference:
            cmd.append("--corrupt-reference")
        out = run_child(cmd, args.seconds + RUN_SLACK_S)
    finally:
        if os.path.exists(data):
            os.remove(data)

    header = parse_tagged(out, "E2E_HEADER")
    result = parse_tagged(out, "E2E_RESULT")
    for line in out.splitlines():
        if not line.startswith("E2E_RESULT "):
            print(line)
    print(f"seed {args.seed}, |D| {gen['transactions']}, "
          f"minsup {gen['minsup']} transactions")
    if header["unmeasurable"]:
        raise BenchError(f"{header['threads']} threads exceed the "
                         f"{header['usable_cores']} usable cores: unmeasurable")

    metrics = {}
    for spec in expected_metrics(args.trace):
        got = result["metrics"].get(spec["name"])
        if got is None:
            raise BenchError(f"metric {spec['name']} missing")
        if got["unit"] != spec["unit"]:
            raise BenchError(f"metric {spec['name']} has unit {got['unit']}, "
                             f"BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log("bench_e2e:", e)
        sys.exit(1)
