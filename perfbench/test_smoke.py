#!/usr/bin/env python3
"""Self-test of the benchmark, seconds-fast.

Runs every workload at SF 0.001 with one pass (`--smoke`), traced and
untraced, and checks that each metric BENCHMARK.json names is printed with
its unit, that a corrupted reference result fails the run, and that the
command fails cleanly where the repository's sources are missing.

    python3 perfbench/test_smoke.py        # from the root of the repository
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# The gated workloads plus `sf1-store`, which the command also runs.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["sf1-store"]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=900,
    )


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = tempfile.mkdtemp(prefix="perfbench-smoke-")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def run_smoke(self, workload, trace, *extra):
        return bench(
            "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
            "--smoke", "--work-dir", self.work, *extra,
        )

    def test_every_metric_is_printed_with_its_unit(self):
        for w in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    p = self.run_smoke(w, trace)
                    self.assertEqual(p.returncode, 0, p.stderr)
                    result = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)

    def test_corrupted_reference_fails_the_run(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p = self.run_smoke(w, 0, "--corrupt-oracle")
                self.assertNotEqual(p.returncode, 0)
                result = json.loads(p.stdout.strip().splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_fails_without_the_repository(self):
        bare = tempfile.mkdtemp(prefix="perfbench-bare-")
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(
                    os.path.join(ROOT, path),
                    os.path.join(bare, path),
                    ignore=shutil.ignore_patterns("target", ".work", "__pycache__"),
                )
            p = subprocess.run(
                SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=180,
            )
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
