#!/usr/bin/env python3
"""Tests of the benchmark itself.

* the metric names and units the benchmark prints equal those in BENCHMARK.json;
* the output checks fail on a corrupted schedule and on a flipped decision
  (gridbw_perfbench --selftest);
* a quick-size run of every workload, untraced and traced, passes its checks
  and prints exactly the metrics BENCHMARK.json lists;
* a directory holding only the benchmark (no sources) fails without a result.

Run from anywhere: python3 perfbench/tests/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (perfbench/run.py)


def run_bench(cwd: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        run.build()

    def declared(self, key: str) -> list[tuple[str, str]]:
        return [(m["name"], m["unit"]) for m in self.spec[key]]

    def test_catalogue_matches_benchmark_json(self) -> None:
        out = subprocess.run([str(run.BINARY), "--list-metrics"], capture_output=True,
                             text=True, check=True).stdout
        catalogue = json.loads(out)
        for key in ("end_to_end", "per_layer"):
            printed = [(m["name"], m["unit"]) for m in catalogue[key]]
            self.assertEqual(printed, self.declared(key), key)

    def test_checks_catch_faults(self) -> None:
        result = subprocess.run([str(run.BINARY), "--selftest"], capture_output=True, text=True)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("selftest passed", result.stdout)

    def test_quick_run_of_every_workload(self) -> None:
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run_bench(ROOT, "--workload", workload, "--seed", "3",
                                       "--seconds", "1", "--trace", str(trace), "--quick")
                    self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
                    last = json.loads(result.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(last["correct"], True)
                    self.assertEqual(last["failed"], 0)
                    self.assertGreaterEqual(last["attempted"], 1)
                    printed = [(name, m["unit"]) for name, m in last["metrics"].items()]
                    self.assertEqual(printed, self.declared(key))
                    for name, m in last["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)
                        if trace == 0:
                            self.assertGreater(m["value"], 0, name)

    def test_checkout_without_sources_fails(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            bare = pathlib.Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            result = run_bench(bare, "--workload", "churn", "--seed", "1", "--seconds", "1",
                               "--trace", "0")
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn("correct", result.stdout)


if __name__ == "__main__":
    unittest.main()
