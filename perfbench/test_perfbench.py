#!/usr/bin/env python3
"""Self-tests of the campaign benchmark.

    python3 perfbench/test_perfbench.py

The statistics and name tests are pure.  The gate-the-gate tests build and
run the benchmark (a few seconds per run once built) and prove that a
corrupted front point makes cells fail, and that a directory without the
sources is refused.  A wrong recorded digest is covered by the Outcome
tests, which feed one straight into the check.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, HERE)
import perfstats  # noqa: E402

ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build")


class Statistics(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(perfstats.median(values), 3.0)
        self.assertEqual(perfstats.quartiles(values), (1.5, 3.0, 4.5))
        self.assertEqual(perfstats.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_tail_keeps_ten_samples_beyond(self):
        values = [float(v) for v in range(1, 41)]  # 1..40
        value, percentile, count = perfstats.tail(values)
        self.assertEqual((value, percentile, count), (30.0, 75.0, 40))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_tail_with_few_samples(self):
        value, percentile, count = perfstats.tail([float(v) for v in range(11)])
        self.assertEqual(value, 0.0)
        self.assertAlmostEqual(percentile, 100.0 / 11)
        self.assertEqual(count, 11)
        self.assertEqual(perfstats.tail([3.0, 9.0, 1.0]), (9.0, 100.0, 3))
        self.assertEqual(perfstats.tail([]), (0.0, 0.0, 0))

    def test_typical_cell_combines_group_medians(self):
        def cells(algorithm, scenario, walls):
            return [{"algorithm": algorithm, "scenario": scenario, "wall_s": w}
                    for w in walls]
        one = cells("A", "s", [1.0, 2.0, 9.0])
        self.assertEqual(perfstats.typical_cell(one), 2.0)
        # Two groups of two costs: the pooled median (5.0) lies in the gap,
        # the result is the geometric mean of the group medians 2 and 8.
        two = cells("A", "cheap", [1.0, 2.0, 3.0]) + cells("A", "costly", [7.0, 8.0, 9.0])
        self.assertAlmostEqual(perfstats.typical_cell(two), 4.0)
        self.assertEqual(perfstats.typical_cell([]), 0.0)

    def test_self_time_subtracts_covered_children(self):
        spans = [
            {"id": 1, "parent": 0, "start": 0, "end": 100},
            {"id": 2, "parent": 1, "start": 10, "end": 40},
            {"id": 3, "parent": 1, "start": 30, "end": 60},  # overlaps 2
            {"id": 4, "parent": 1, "start": 90, "end": 130},  # runs past 1
        ]
        selfs = perfstats.self_times(spans)
        self.assertEqual(selfs[1], 100 - 50 - 10)
        self.assertEqual(selfs[2], 30)


class Names(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            self.spec = json.load(handle)

    def test_every_name_is_well_formed(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        for name in names:
            self.assertRegex(name, perfstats.NAME_PATTERN)
        self.assertEqual(len(names), len(set(names)))

    def test_declared_metrics_are_the_reported_ones(self):
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(declared, perfstats.END_TO_END_UNITS)
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(declared, perfstats.PER_LAYER_UNITS)


def _raw(cells_digests, checks=None):
    """A minimal deterministic-workload raw result with one round."""
    checks = checks or [""] * len(cells_digests)
    cells = [{"front_digest": d, "check": c, "sim_events": 10, "sim_runs": 1,
              "full_evals": 1, "screen_evals": 0}
             for d, c in zip(cells_digests, checks)]
    rnd = {"seed": 5, "error": "", "csv_digest": "c", "fronts_digest": "f",
           "messages": 0, "cells": cells}
    return {"seed": 5, "deterministic": 1, "cells_per_round": len(cells),
            "rounds": [rnd], "warmup_round": json.loads(json.dumps(rnd))}


class Outcome(unittest.TestCase):
    def test_clean_round_passes(self):
        raw = _raw(["a", "b"])
        recorded = {"5": [perfstats.summary(raw["rounds"][0])]}
        self.assertEqual(perfstats.outcome(raw, recorded)[:2], (2, 0))

    def test_wrong_recorded_digest_fails_the_round(self):
        raw = _raw(["a", "b"])
        wrong = perfstats.summary(raw["rounds"][0])
        wrong["csv_digest"] = "0" * 16
        self.assertEqual(perfstats.outcome(raw, {"5": [wrong]})[:2], (2, 2))

    def test_one_changed_front_fails_one_cell(self):
        raw = _raw(["a", "b"])
        raw["rounds"][0]["cells"][1]["front_digest"] = "z"
        self.assertEqual(perfstats.outcome(raw, {})[:2], (2, 1))

    def test_message_count_differing_from_the_warm_up_fails_the_round(self):
        raw = _raw(["a", "b"])
        raw["rounds"][0]["messages"] = 13
        raw["warmup_round"]["messages"] = 12
        attempted, failed, notes = perfstats.outcome(raw, {})
        self.assertEqual((attempted, failed), (2, 2))
        self.assertIn("transport messages", notes[0])

    def test_message_count_drift_from_the_record_is_a_behaviour_change(self):
        raw = _raw(["a", "b"])
        recorded = perfstats.summary(raw["rounds"][0])
        recorded["net_msgs"] = 7
        attempted, failed, notes = perfstats.outcome(raw, {"5": [recorded]})
        self.assertEqual((attempted, failed), (2, 0))
        self.assertEqual(len(notes), 1)
        self.assertIn("behaviour change", notes[0])
        self.assertIn("net_msgs", notes[0])

    def test_flagged_cell_fails(self):
        raw = _raw(["a", "b"], checks=["", "re-evaluation differs from the front point"])
        raw["deterministic"] = 0
        self.assertEqual(perfstats.outcome(raw, {})[:2], (2, 1))


def _run(*args):
    out = subprocess.run([sys.executable, RUN, "--seconds", "1", "--trace", "0"] + list(args),
                         capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class GateTheGate(unittest.TestCase):
    """The real checks, driven through the benchmark command."""

    def test_corrupted_front_point_fails_a_cell(self):
        for workload in ("mls-d200", "elastic-race"):
            result = _run("--workload", workload, "--seed", "5", "--corrupt-front")
            self.assertFalse(result["correct"], workload)
            self.assertGreater(result["failed"], 0, workload)

    def test_refuses_to_run_without_the_sources(self):
        bare = os.path.join(SCRATCH, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "moea-grid",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             capture_output=True, text=True, cwd=bare, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
