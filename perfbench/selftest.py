"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, in its own
process, and checks that each metric BENCHMARK.json names is printed
with its unit and lands in the result line.  Then runs each workload
in-process with one output corrupted and checks that the corruption is
counted as a failure instead of passing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout


class PrintsEveryMetric(unittest.TestCase):
    def check(self, trace: int, listed):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = bench(workload, trace).splitlines()
                result = json.loads(out[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                printed = {line.split()[1]: line.split()[3]
                           for line in out if line.startswith("metric ")}
                self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
                for metric in listed:
                    self.assertEqual(printed[metric["name"]], metric["unit"])
                    self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])

    def test_end_to_end(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer(self):
        self.check(1, SPEC["per_layer"])


def corrupt(workload: str):
    if workload == "ingest":
        return lambda i, sol: {**sol, next(iter(sol)): -1}
    if workload == "cli_files":
        return lambda i, res: ((res[0][0], res[0][1] + "x = {x}\n"), res[1]) if i == 0 else res
    return lambda i, res: (res[0], res[1][:-2]) if i == 0 else res


class CountsCorruptedOutput(unittest.TestCase):
    def test_corrupted_output_fails(self):
        sys.path.insert(0, str(run.SRC))
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                args = argparse.Namespace(workload=workload, seed=7, seconds=0.2,
                                          trace=0, size="tiny")
                result = run.run(args, tamper=corrupt(workload))
                self.assertGreater(result["failed"], 0)
                self.assertGreater(result["metrics"]["fail_ratio"][0], 0)
                self.assertLess(result["metrics"]["ok_ratio"][0], 1)


if __name__ == "__main__":
    unittest.main()
