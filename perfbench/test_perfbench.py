#!/usr/bin/env python3
"""The benchmark's own tests: python3 perfbench/test_perfbench.py

- the smoke profile runs every workload at a tiny size, untraced and traced,
  and every metric BENCHMARK.json names must come out with its unit, next to
  the workload's issue-named table rows;
- the compare logic labels synthetic result sets;
- a directory holding only the benchmark's own files must fail cleanly.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# The rows each workload's table must print, as the issue names them, and
# the host calibration its metric times are scaled by.
TABLE_ROWS = {
    "oneshot_100k": ("setup_s", "check_s", "check_rss_mb", "lint_s", "peak_rss_mb",
                     "failed_frac", "calibrate_ms"),
    "cert_mls": ("setup_s", "emit_cert_s", "verify_cert_s", "cert_mb", "peak_rss_mb",
                 "failed_frac", "calibrate_ms"),
    "daemon_mix": ("setup_s", "edit_p50_ms", "edit_p90_ms", "edits_per_s", "cold_check_p50_ms",
                   "cold_lint_p50_ms", "peak_rss_mb", "failed_frac", "calibrate_ms"),
    "batch_64": ("setup_s", "batch_s", "batch_programs_per_s", "check_one_s", "peak_rss_mb",
                 "failed_frac", "calibrate_ms"),
}


def bench(workload, trace, cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--profile", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class SmokeProfile(unittest.TestCase):
    def check_run(self, workload, trace, wanted):
        proc = bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout + proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float), metric["name"])
        return lines

    def test_every_workload_untraced(self):
        for workload in SPEC_WORKLOADS:
            with self.subTest(workload=workload):
                lines = self.check_run(workload, 0, SPEC["end_to_end"])
                printed = {line.split()[0] for line in lines if line.startswith("  ")}
                for row in TABLE_ROWS[workload]:
                    self.assertIn(row, printed)
                for metric in SPEC["end_to_end"]:
                    self.assertNotEqual(json.loads(lines[-1])["metrics"][metric["name"]]["value"],
                                        0, metric["name"])

    def test_every_workload_traced(self):
        for workload in SPEC_WORKLOADS:
            with self.subTest(workload=workload):
                lines = self.check_run(workload, 1, SPEC["per_layer"])
                text = "\n".join(lines)
                for name, unit in run.WORKLOAD_LAYERS.get(workload, ()):
                    self.assertRegex(text, r"\n    %s +-?[0-9.]+ %s" % (name, unit))
                self.assertIn("self time by span", text)
                trace = os.path.join(ROOT, run.WORK_ROOT, "traces",
                                     "%s-seed7.trace.json" % workload)
                with open(trace) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                self.assertTrue({"id", "parent", "request_id"} <= set(events[0]["args"]))


SPEC_WORKLOADS = [w["name"] for w in SPEC["workloads"]]


class CompareLogic(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_clear_gain_is_better(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(compare.label(self.parent, change, 0.1, "lower")[0], "better")

    def test_regression_beyond_bound_is_worse(self):
        change = [v * 1.3 for v in self.parent]
        self.assertEqual(compare.label(self.parent, change, 0.1, "lower")[0], "worse")

    def test_small_move_is_unchanged(self):
        change = [v * 1.03 for v in self.parent]
        self.assertEqual(compare.label(self.parent, change, 0.1, "lower")[0], "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        change = [v * 1.05 for v in noisy]
        self.assertEqual(compare.label(noisy, change, 0.1, "lower")[0], "unresolved")

    def test_higher_is_better_direction(self):
        change = [v * 1.3 for v in self.parent]
        self.assertEqual(compare.label(self.parent, change, 0.1, "higher")[0], "better")

    def test_runs_group_by_workload(self):
        path = os.path.join(ROOT, run.WORK_ROOT, "compare-test.jsonl")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for value in (1.0, 2.0):
                f.write(json.dumps({"provenance": {"workload": "w", "trace": 0},
                                    "metrics": {"m": {"value": value, "unit": "s"}}}) + "\n")
            f.write(json.dumps({"provenance": {"workload": "w", "trace": 1},
                                "metrics": {"m": {"value": 9.0, "unit": "s"}}}) + "\n")
        try:
            self.assertEqual(compare.load_runs(path), {"w": {"m": [1.0, 2.0]}})
        finally:
            os.remove(path)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_sources(self):
        bare = os.path.join(ROOT, run.WORK_ROOT, "bare-%d" % os.getpid())
        os.makedirs(os.path.join(bare, "perfbench"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for name in os.listdir(HERE):
                if os.path.isfile(os.path.join(HERE, name)):
                    shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
            proc = bench(SPEC_WORKLOADS[0], 0, cwd=bare,
                         script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
