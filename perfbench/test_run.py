"""Tests for the benchmark runner's own statistics and for BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def raw_fixture(n=2000):
    """A measurement as bench.exe prints it: two passes of n executions,
    two jobs. Execution i takes 10 us + i ns in one pass and 30 us in the
    other, and the passes alternate which of the two is fast."""
    fast = [10_000 + i for i in range(n)]
    rows = [[f if i % 2 == k else 30_000 for i, f in enumerate(fast)]
            for k in (0, 1)]
    t = {
        "walls_ns": [49_800_000], "spans_ns": [40_000_000],
        "execs": n, "steps": 10_000,
        "choices": 12_000, "picks": 10_000, "draws": 2_000,
        "strategy_ns": 600_000, "runtime_ns": 900_000_000,
        "runtime_minor_words": 1_000_000.0, "runtime_promoted_words": 20_000.0,
        "fresh_ns": 10_000, "feedback_ns": 5_000, "cov_fingerprint_ns": 5_000,
        "absorb_ns": 5_000, "hb_fingerprint_ns": 5_000, "lin_ns": 50_000,
        "lin_ops": 400, "novel_core": 3, "novel_hb": 90,
        "happenings": 50_000, "faults": 80, "vtime": 200, "triples": 140,
        "partial_orders": 90, "wrap_ns": 100.0, "floor_ns": 40.0,
    }
    return {
        "workload": "lin-short", "seed": 1, "word_bytes": 8,
        # 1 ms and 0.5 ms of each pass fall outside its executions
        "passes": [
            {"wall_ns": sum(rows[0]) + 1_000_000, "execs": n,
             "steps": 10_000, "minor_words": 1_500_000.0,
             "promoted_words": 30_000.0},
            {"wall_ns": sum(rows[1]) + 500_000, "execs": n,
             "steps": 10_000, "minor_words": 1_500_000.0,
             "promoted_words": 31_000.0},
        ],
        "exec_ns": rows[0] + rows[1],
        "heap_peak_words": 2 * 2**20 // 8,
        "jobs": [
            {"bug": "A", "strategy": "random", "expect": "bug", "result": "found",
             "executions": 3, "ndc": 10, "seconds": 0.1, "job_executions": 60,
             "hunts": 9, "found": 8},
            {"bug": "B", "strategy": "random", "expect": "clean",
             "result": "clean", "executions": 0, "ndc": 0, "seconds": 0.2,
             "job_executions": 40, "hunts": 1, "found": 0},
        ],
        "problems": [],
        "traced": t,
        "light": dict(t, walls_ns=[43_000_000, 42_000_000],
                      spans_ns=[38_000_000, 37_000_000]),
    }


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile([7], 99), 7)
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(run.highest_percentile(19))
        self.assertEqual(run.highest_percentile(20), 50.0)
        self.assertEqual(run.highest_percentile(99), 50.0)
        self.assertEqual(run.highest_percentile(100), 90.0)
        self.assertEqual(run.highest_percentile(999), 90.0)
        self.assertEqual(run.highest_percentile(1000), 99.0)
        self.assertEqual(run.highest_percentile(9999), 99.0)
        self.assertEqual(run.highest_percentile(10_000), 99.9)

    def test_p99_needs_a_thousand_executions_per_pass(self):
        for n, fails in ((999, True), (1000, False)):
            raw = raw_fixture(n)
            metrics = run.end_to_end(raw, 0.5)
            failures = run.checks(raw, metrics, declared("end_to_end"), 0)
            self.assertEqual(any("p99" in f for f in failures), fails, n)


class Quickest(unittest.TestCase):
    def test_each_execution_takes_its_fastest_pass(self):
        raw = raw_fixture()
        rows = run.pass_rows(raw)
        self.assertEqual(len(rows), 2)
        per_exec, outside = run.quickest(
            rows, [p["wall_ns"] for p in raw["passes"]])
        self.assertEqual(per_exec, [10_000 + i for i in range(2000)])
        self.assertEqual(outside, 500_000)

    def test_passes_that_differ_fail_a_check(self):
        raw = raw_fixture()
        raw["exec_ns"] = raw["exec_ns"][:-1]
        self.assertIsNone(run.pass_rows(raw))
        metrics = run.end_to_end(raw, 0.5)
        failures = run.checks(raw, metrics, declared("end_to_end"), 0)
        self.assertTrue(any("passes differ" in f for f in failures))


class Arithmetic(unittest.TestCase):
    def test_words_per_step(self):
        self.assertEqual(run.words_per_step(1_360_000, 10_000), 136.0)
        self.assertAlmostEqual(run.words_per_step(29_400, 10_000), 2.94)
        with self.assertRaises(ValueError):
            run.words_per_step(10, 0)

    def test_counters_from_the_first_pass_times_from_the_fastest(self):
        m = run.end_to_end(raw_fixture(), 0.5)
        self.assertEqual(m["setup_s"], (0.5, "s"))
        # every execution's fastest time, plus the least time outside them
        wall_s = (sum(10_000 + i for i in range(2000)) + 500_000) / 1e9
        self.assertAlmostEqual(m["wall_s"][0], wall_s)
        self.assertAlmostEqual(m["execs_per_s"][0], 2000 / wall_s)
        self.assertAlmostEqual(m["steps_per_s"][0], 10_000 / wall_s)
        self.assertEqual(m["minor_words_per_step"], (150.0, "words"))
        self.assertEqual(m["promoted_words_per_step"], (3.0, "words"))
        # percentiles over each execution's fastest time
        self.assertAlmostEqual(m["exec_us_p50"][0], 10.999)
        self.assertAlmostEqual(m["exec_us_p99"][0], 11.979)
        # 8 of 9 hunts found their bug, the clean run stayed clean
        self.assertAlmostEqual(m["ok_frac"][0], 9 / 10)

    def test_per_layer_removes_the_wrapper_cost(self):
        m = run.per_layer(raw_fixture())
        calls = 12_000
        strategy_ns = 600_000 - calls * 40.0
        self.assertAlmostEqual(m["strategy.ns_per_call"][0], strategy_ns / calls)
        self.assertAlmostEqual(
            m["runtime.ns_per_step"][0],
            (900_000_000 - calls * 100.0 - strategy_ns) / 10_000)
        self.assertAlmostEqual(m["runtime.minor_words_per_step"][0], 100.0)
        untraced_ns = min(p["wall_ns"] for p in raw_fixture()["passes"])
        self.assertAlmostEqual(m["trace.overhead_frac"][0],
                               49_800_000 / untraced_ns - 1)
        # fastest untraced pass minus the spans of the fastest spans-only
        # pass, per execution of one pass
        self.assertAlmostEqual(m["engine.self_us_per_exec"][0],
                               (untraced_ns - 37_000_000) / 2000 / 1e3)
        self.assertEqual(m["engine.exec_samples"], (4000, "count"))
        self.assertEqual(m["gc.heap_peak_mb"], (2.0, "MB"))


class Names(unittest.TestCase):
    def test_charset(self):
        for good in ("wall_s", "runtime.ns_per_step", "exec_us_p99", "a-b.c_9"):
            self.assertTrue(run.valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, "é"):
            self.assertFalse(run.valid_name(bad), bad)

    def test_emitted_names_match_the_spec(self):
        raw = raw_fixture()
        for section, metrics in (
            ("end_to_end", run.end_to_end(raw, 0.5)),
            ("per_layer", run.per_layer(raw)),
        ):
            self.assertEqual(set(metrics), set(declared(section)), section)
            self.assertEqual(
                run.checks(raw, metrics, declared(section),
                           int(section == "per_layer")), [])

    def test_a_zero_end_to_end_metric_fails(self):
        raw = raw_fixture()
        metrics = run.end_to_end(raw, 0.0)
        failures = run.checks(raw, metrics, declared("end_to_end"), 0)
        self.assertTrue(any("setup_s" in f for f in failures))


class Spec(unittest.TestCase):
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertEqual(
            [w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["name"], self.name)
            self.assertRegex(m["unit"], self.unit)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
