#!/usr/bin/env python3
"""The benchmark's own tests: python3 bench_e2e/test_e2e.py

Runs every workload at a tiny |D| through run.py (building the benchmark
first if needed) and checks the contract the benchmark promises: every
metric named in BENCHMARK.json printed with its unit, byte-checked jobs,
corrupted references caught, deterministic workload files, honest labels.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "e2e", "e2e")
SCRATCH = os.path.join(ROOT, ".bench_build", "test")
WORKLOADS = ("sparse-invert", "dense-mine", "wide-count")
SMOKE_SCALE = "0.02"


def run_bench(*args):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    return proc


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def gen(workload, seed, out):
    subprocess.run([BINARY, "gen", f"--workload={workload}", f"--seed={seed}",
                    f"--scale={SMOKE_SCALE}", f"--out={out}"],
                   check=True, capture_output=True, timeout=300)
    with open(out, "rb") as f:
        return f.read()


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(SCRATCH, exist_ok=True)
        # The first smoke run builds; later tests use the binary directly.
        proc = run_bench("--workload", "sparse-invert", "--seed", "1",
                         "--seconds", "1", "--scale", SMOKE_SCALE)
        if proc.returncode != 0:
            raise RuntimeError("benchmark build/run failed:\n" + proc.stderr)

    def test_smoke_every_metric_with_unit(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench("--workload", workload, "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--scale", SMOKE_SCALE)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = last_json(proc.stdout)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    names = [m["name"] for m in spec()[group]]
                    self.assertEqual(list(result["metrics"]), names)
                    for m in spec()[group]:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertIsInstance(got["value"], (int, float))
                        # The human-readable table names it with its unit.
                        self.assertRegex(proc.stdout,
                                         rf"(?m)^{m['name']}\s+\S+\s+"
                                         rf"{m['unit']}\s")
                    if group == "end_to_end":
                        for m in names:
                            self.assertGreater(result["metrics"][m]["value"],
                                               0)

    def test_corrupted_reference_fails_every_job(self):
        proc = run_bench("--workload", "dense-mine", "--seed", "3",
                         "--seconds", "1", "--scale", SMOKE_SCALE,
                         "--corrupt-reference")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = last_json(proc.stdout)
        self.assertFalse(result["correct"])
        # Only the reference cross-check (made before the corruption) passes.
        self.assertGreater(result["failed"], 0)
        self.assertEqual(result["failed"], result["attempted"] - 1)

    def test_generator_is_deterministic(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = gen(workload, 11, os.path.join(SCRATCH, "a.txt"))
                b = gen(workload, 11, os.path.join(SCRATCH, "b.txt"))
                c = gen(workload, 12, os.path.join(SCRATCH, "c.txt"))
                self.assertTrue(a)
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)

    def test_more_threads_than_cores_is_unmeasurable(self):
        data = os.path.join(SCRATCH, "u.txt")
        minsup = json.loads(subprocess.run(
            [BINARY, "gen", "--workload=sparse-invert", "--seed=1",
             f"--scale={SMOKE_SCALE}", f"--out={data}"], check=True,
            capture_output=True, text=True).stdout)["minsup"]
        cores = len(os.sched_getaffinity(0))
        out = subprocess.run(
            [BINARY, "run", "--workload=sparse-invert", f"--file={data}",
             f"--minsup={minsup}", "--seconds=0.1", f"--threads={cores + 1}"],
            check=True, capture_output=True, text=True).stdout
        header = next(json.loads(line.split(" ", 1)[1])
                      for line in out.splitlines()
                      if line.startswith("E2E_HEADER "))
        self.assertTrue(header["unmeasurable"])
        self.assertEqual(header["threads"], cores + 1)
        for field in ("nproc", "build_type", "cpu_avx2", "cpu_avx512bw",
                      "simd_dispatch"):
            self.assertIn(field, header)

    def test_fails_without_library_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec()["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join(bare, "bench_e2e", "run.py"),
             "--workload", "sparse-invert", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("\"correct\"", proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
