#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 bench_e2e/sweep.py --seeds 1-10 [--workloads a,b] [--trace 0]
                               [--out summary.json]

For every workload, runs run.py once per seed (--seconds from
BENCHMARK.json) and reports each metric's median, quartiles and spread
(quartile distance over median, statistics.quantiles(n=4)), next to the
bound BENCHMARK.json fixes. This is how the committed baseline was made and
how a change is compared with its parent.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace,
               "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            start = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["wall_s"] = round(time.time() - start, 1)
            runs.append(result)
            print(f"{workload} seed {seed}: {result['wall_s']} s, "
                  f"failed {result['failed']}/{result['attempted']}, " +
                  ", ".join(f"{k}={v['value']:.4g}"
                            for k, v in result["metrics"].items()
                            if k in bounds or args.trace), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": med,
                "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "bound": bounds.get(name)}
            if name in bounds:
                print(f"  {name:12s} median {med:.4g}  spread "
                      f"{metrics[name]['spread']:.3f}  bound {bounds[name]}")
        summary["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
