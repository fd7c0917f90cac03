#!/usr/bin/env python3
"""Tests of tools/perf_gate.py against copies of the committed baselines.

Each case builds a "current run" from a baseline's own rows, changes what
the case names, and checks the gate's exit status and the (row, metric) it
fails at. Run: python3 tools/perf_gate_test.py (ctest runs it as
perf_gate_test).
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GATE = os.path.join(ROOT, "tools", "perf_gate.py")


def baseline(bench):
    with open(os.path.join(ROOT, f"BENCH_{bench}.json")) as f:
        return json.load(f)


def run_of(doc):
    """A bench run that reproduces the baseline's rows exactly."""
    run = copy.deepcopy(doc)
    del run["gates"]
    return run


def edit(doc, change, name=None, metric=None):
    """Applies `change` to the value of every row matching name/metric."""
    for row in doc["rows"]:
        if name in (None, row["name"]) and metric in (None, row["metric"]):
            row["value"] = change(row["value"])
    return doc


def walls(doc):
    return [row for row in doc["rows"] if row["metric"].startswith("wall_")]


class PerfGateTest(unittest.TestCase):

    def gate(self, base, current, off=False, best_of=None):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for label, doc in (("base", base), ("current", current),
                               ("extra", best_of)):
                if doc is None:
                    continue
                path = os.path.join(tmp, f"{label}.json")
                with open(path, "w") as f:
                    json.dump(doc, f)
                paths.append(path)
            args = [sys.executable, GATE, paths[0], paths[1]]
            if best_of is not None:
                args.append(f"--best-of={paths[2]}")
            env = dict(os.environ)
            env.pop("GSO_PERF_GATE", None)
            if off:
                env["GSO_PERF_GATE"] = "off"
            return subprocess.run(args, capture_output=True, text=True,
                                  env=env)

    def assertPasses(self, result):
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def assertFailsAt(self, result, *failures):
        """Exit 1, failing at exactly the given "name metric" checks."""
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        failed = [line.split("FAIL ", 1)[1]
                  for line in result.stderr.splitlines() if "FAIL " in line]
        self.assertEqual(failed, list(failures), result.stderr)

    def test_unchanged_values_pass(self):
        for bench in ("controller", "fleet", "soak", "robustness"):
            with self.subTest(bench=bench):
                base = baseline(bench)
                self.assertPasses(self.gate(base, run_of(base)))

    def test_one_wall_value_x1_3_fails(self):
        base = baseline("controller")
        current = edit(run_of(base), lambda v: v * 1.3, "mesh_16",
                       "wall_ns_per_solve")
        self.assertFailsAt(self.gate(base, current),
                           "mesh_16 wall_ns_per_solve")

    def test_every_wall_value_x3_passes(self):
        # A uniformly 3x slower host moves the host factor, not the verdict.
        for bench in ("controller", "fleet"):
            with self.subTest(bench=bench):
                base = baseline(bench)
                current = run_of(base)
                self.assertTrue(walls(current))
                for row in walls(current):
                    row["value"] *= 3
                self.assertPasses(self.gate(base, current))

    def test_host_factor_leaves_deterministic_metrics_raw(self):
        # On a 3x slower host a 2x recovery tail (virtual time) still fails.
        base = baseline("fleet")
        current = run_of(base)
        for row in walls(current):
            row["value"] *= 3
        edit(current, lambda v: v * 2, "fleet_failover_64x8",
             "recovery_p99_us")
        self.assertFailsAt(self.gate(base, current),
                           "fleet_failover_64x8 recovery_p99_us")

    def test_best_of_passes_a_row_that_passes_the_second_draw(self):
        base = baseline("controller")
        slow = edit(run_of(base), lambda v: v * 1.3, "mesh_16",
                    "wall_ns_per_solve")
        self.assertPasses(self.gate(base, slow, best_of=run_of(base)))
        # Slow in both draws: a regression, not noise.
        self.assertFailsAt(self.gate(base, slow, best_of=slow),
                           "mesh_16 wall_ns_per_solve")

    def test_best_of_judges_each_draw_by_its_own_host_factor(self):
        # The first draw flags one row. In the second, most rows draw
        # faster (host factor ~0.76) and the flagged row passes; two rows
        # that drew x1.09 both times pass the first draw. Mixing the
        # draws' better values into one would take the fast rows' median
        # as host factor and flag those two and every unchanged row.
        base = baseline("controller")
        names = [row["name"] for row in walls(base)
                 if row["metric"] == "wall_ns_per_solve"]
        flagged, steady, fast = names[0], names[1:3], names[3:9]
        first = edit(run_of(base), lambda v: v * 1.3, flagged,
                     "wall_ns_per_solve")
        second = edit(run_of(base), lambda v: v * 0.8, flagged,
                      "wall_ns_per_solve")
        for name in steady:
            for draw in (first, second):
                edit(draw, lambda v: v * 1.09, name, "wall_ns_per_solve")
        for name in fast:
            edit(second, lambda v: v * 0.76, name, "wall_ns_per_solve")
        self.assertFailsAt(self.gate(base, first),
                           f"{flagged} wall_ns_per_solve")
        self.assertPasses(self.gate(base, first, best_of=second))

    def test_isa_mismatch_is_noted_and_passes(self):
        base = baseline("controller")
        base["host"]["isa"] = "x86-64-v4"
        current = run_of(base)
        result = self.gate(base, current)
        self.assertPasses(result)
        self.assertNotIn("note:", result.stdout)
        for other in ("baseline", None):
            with self.subTest(isa=other):
                if other is None:
                    del current["host"]["isa"]
                else:
                    current["host"]["isa"] = other
                result = self.gate(base, current)
                self.assertPasses(result)
                self.assertIn("perf_gate: note: the baseline ran on the "
                              "x86-64-v4 kernel build", result.stdout)

    def test_changed_digest_fails(self):
        base = baseline("fleet")
        current = edit(run_of(base), lambda v: "0" * 16, "fleet_storm_200",
                       "digest")
        self.assertFailsAt(self.gate(base, current),
                           "fleet_storm_200 digest")

    def test_qoe_floor_drop_fails_even_when_off(self):
        base = baseline("soak")
        current = edit(run_of(base), lambda v: v * 0.7, "soak_conference",
                       "qoe_floor")
        for off in (False, True):
            with self.subTest(off=off):
                self.assertFailsAt(self.gate(base, current, off=off),
                                   "soak_conference qoe_floor")
        # A second draw does not rescue a deterministic metric.
        self.assertFailsAt(self.gate(base, current, best_of=run_of(base)),
                           "soak_conference qoe_floor")

    def test_off_skips_only_wall_comparisons(self):
        base = baseline("fleet")
        current = edit(run_of(base), lambda v: v * 5, "fleet_storm_200",
                       "wall_seconds")
        self.assertFailsAt(self.gate(base, current),
                           "fleet_storm_200 wall_seconds")
        self.assertPasses(self.gate(base, current, off=True))
        edit(current, lambda v: v * 2, "fleet_failover_64x8",
             "recovery_p99_us")
        self.assertFailsAt(self.gate(base, current, off=True),
                           "fleet_failover_64x8 recovery_p99_us")

    def test_missing_row_fails(self):
        base = baseline("fleet")
        current = run_of(base)
        current["rows"] = [row for row in current["rows"]
                           if row["name"] != "fleet_failover_64x8"]
        result = self.gate(base, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("baseline rows missing from the current run",
                      result.stderr)
        self.assertIn("('fleet_failover_64x8', 'recovery_p99_us')",
                      result.stderr)

    def test_floor_clamps_a_near_zero_baseline(self):
        base = edit(baseline("soak"), lambda v: 0, "soak_fleet",
                    "allocs_per_vhour")
        current = edit(run_of(base), lambda v: 4000, "soak_fleet",
                       "allocs_per_vhour")
        # Both sides clamp to the 4096 floor: ratio 1.
        self.assertEqual(base["gates"]["allocs_per_vhour"]["floor"], 4096)
        self.assertPasses(self.gate(base, current))
        # Without the floor the same jitter is an infinite ratio.
        del base["gates"]["allocs_per_vhour"]["floor"]
        self.assertFailsAt(self.gate(base, current),
                           "soak_fleet allocs_per_vhour")


if __name__ == "__main__":
    unittest.main()
