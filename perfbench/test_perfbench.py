#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of the source tree:

    python3 perfbench/test_perfbench.py

They build perfbench (as run.py does), then check that inputs follow the
seed, that a short run of every workload passes its correctness checks and
reports every BENCHMARK.json metric with its unit, and that the benchmark
refuses to run outside a source tree.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as bench_run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE_SECONDS = 4


def run_bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(SMOKE_SECONDS),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(cwd), timeout=600)


class InputsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = bench_run.build_binary()

    def digests(self, workload, seed):
        done = subprocess.run(
            [str(self.binary), f"--workload={workload}", f"--seed={seed}",
             "--seconds=36", "--mode=inputs"],
            capture_output=True, text=True, check=True)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_same_seed_gives_identical_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.digests(workload, 7),
                                 self.digests(workload, 7))

    def test_different_seed_gives_different_inputs(self):
        families = ["prompts.warmup", "prompts.phase_a", "prompts.phase_b",
                    "arrivals", "mcqs", "split", "train"]
        for workload in WORKLOADS:
            a = self.digests(workload, 7)
            b = self.digests(workload, 8)
            for family in families:
                with self.subTest(workload=workload, family=family):
                    self.assertNotEqual(a[family], b[family])
            # The offered load is fixed by the workload, not by the seed.
            self.assertEqual(a["arrival_count"], b["arrival_count"])


class PoolWidthTest(unittest.TestCase):
    def test_pool_width_comes_from_the_benchmark_not_the_shell(self):
        saved = os.environ.get("INFUSERKI_NUM_THREADS")
        os.environ["INFUSERKI_NUM_THREADS"] = "2"
        try:
            self.assertNotIn("INFUSERKI_NUM_THREADS", bench_run.bench_env())
            width = bench_run.MEASURED_POOL_WIDTH
            self.assertEqual(
                bench_run.bench_env(width)["INFUSERKI_NUM_THREADS"],
                str(width))
        finally:
            if saved is None:
                del os.environ["INFUSERKI_NUM_THREADS"]
            else:
                os.environ["INFUSERKI_NUM_THREADS"] = saved


class SmokeTest(unittest.TestCase):
    def check_result(self, done, wanted):
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            entry = result["metrics"][m["name"]]
            self.assertEqual(entry["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(entry["value"]), m["name"])
        return result

    def test_every_workload_passes_its_checks(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = run_bench(workload, 3, 0)
                result = self.check_result(done, SPEC["end_to_end"])
                width = bench_run.MEASURED_POOL_WIDTH
                self.assertIn(f'"pool_width": {width},', done.stdout)
                for name, entry in result["metrics"].items():
                    self.assertGreater(entry["value"], 0.0, name)

    def test_traced_run_reports_every_layer_metric(self):
        self.check_result(run_bench(WORKLOADS[0], 3, 1), SPEC["per_layer"])

    def test_refuses_to_run_without_the_source_tree(self):
        bare = bench_run.build_dir().parent / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench(WORKLOADS[0], 1, 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
