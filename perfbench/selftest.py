"""Self-test of the benchmark: tiny passes, the metric contract, the gate.

    python3 perfbench/selftest.py

Runs every workload at tiny size, traced and untraced, and checks that
each metric named in BENCHMARK.json, and each of the six end-to-end
numbers, is printed with its unit.  Then it
spoils one reference answer and checks that the run counts a failure and
exits nonzero, and that a tree without the package is refused.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# the six end-to-end numbers every untraced run prints, with their units
PRINTED = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s",
           "cmd_tail_s": "s", "fail_frac": "ratio", "peak_rss_mb": "MB"}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyPasses(unittest.TestCase):

    def check_metrics(self, proc, wanted):
        out = result(proc)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertEqual({name: m["unit"] for name, m in
                          out["metrics"].items()},
                         {m["name"]: m["unit"] for m in wanted})
        for m in out["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))
        return out

    def test_every_workload_prints_its_metrics(self):
        for w in SPEC["workloads"]:
            for seed in ("1", "2"):
                with self.subTest(workload=w["name"], seed=seed):
                    proc = bench("--workload", w["name"], "--seed", seed,
                                 "--trace", "0", "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stdout
                                     + proc.stderr)
                    out = self.check_metrics(proc, SPEC["end_to_end"])
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    printed = {line.split()[0]: line.split()[1:3]
                               for line in proc.stdout.splitlines()[1:-1]}
                    for name, unit in PRINTED.items():
                        self.assertEqual(printed[name][1], unit)
                    self.assertEqual(float(printed["fail_frac"][0]), 0)
                    self.assertGreater(out["metrics"]["wall_s"]["value"], 0)

    def test_traced_run_prints_every_layer_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = bench("--workload", w["name"], "--seed", "1",
                             "--trace", "1", "--tiny")
                self.assertEqual(proc.returncode, 0, proc.stdout
                                 + proc.stderr)
                self.check_metrics(proc, SPEC["per_layer"])

    def test_sweep_trace_reads_half_useful(self):
        proc = bench("--workload", "sweep_pair", "--seed", "1",
                     "--trace", "1", "--tiny")
        ratio = result(proc)["metrics"]["vanishing.sweep_useful_ratio"]
        self.assertEqual(ratio["value"], 0.5)


class Gate(unittest.TestCase):

    def test_corrupted_reference_fails_the_run(self):
        proc = bench("--workload", "absolute", "--seed", "1", "--trace", "0",
                     "--tiny", "--corrupt-reference")
        self.assertNotEqual(proc.returncode, 0)
        out = result(proc)
        self.assertFalse(out["correct"])
        self.assertGreater(out["failed"], 0)
        line = next(x for x in proc.stdout.splitlines()
                    if x.startswith("fail_frac "))
        self.assertGreater(float(line.split()[1]), 0)

    def test_tree_without_the_package_is_refused(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "absolute", "--seed", "1",
                         "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    unittest.main()
