"""Smoke test of the benchmark itself: python3 bench/test_bench.py

Runs each workload at a tiny size on the default seed in both modes,
checks that every metric BENCHMARK.json names is reported, that the
output checks reject wrong records, and that the tracing wrappers leave
``cli.run``'s stdout byte-identical.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Query  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 6


def capture(argv) -> tuple[int, str]:
    import numsem.cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = numsem.cli.run(argv)
    return code, out.getvalue()


def record(members, frobenius) -> str:
    """The text record the CLI prints for the semigroup with these small elements."""
    import numsem.cli
    s = numsem.cli.NumericalSemigroup.from_small_elements(members, frobenius)
    return numsem.cli.format_text(numsem.cli.semigroup_record(s)) + "\n"


class RunTest(unittest.TestCase):
    def run_bench(self, workload: str, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
             str(workloads.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
             "--queries", str(TINY)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.splitlines()[-1])

    def test_every_metric_is_reported(self):
        for workload in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], TINY)
                    declared = {m["name"]: m["unit"] for m in SPEC[key]}
                    reported = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(reported, declared)

    def test_workload_names_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            self.assertEqual(workloads.build(workload, 3), workloads.build(workload, 3))


class WrapperTest(unittest.TestCase):
    ARGV = [
        ["irreducibles", "-A", "7", "-F", "40", "--parallel", "2"],
        ["semigroups", "-A", "5", "-F", "30", "--format", "json"],
        ["maximal", "-B", "19,23"],
        ["solve", "-A", "6", "-B", "31,40", "--format", "json"],
        ["irreducibles", "-A", "7", "-F", "14"],
    ]

    def test_wrappers_leave_stdout_byte_identical(self):
        import numsem.cli
        original_run = numsem.cli.run
        before = [capture(argv) for argv in self.ARGV]
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(numsem.cli.run, original_run)
            during = [capture(argv) for argv in self.ARGV]
        finally:
            t.uninstall()
        after = [capture(argv) for argv in self.ARGV]
        self.assertIs(numsem.cli.run, original_run)
        self.assertEqual(during, before)
        self.assertEqual(after, before)
        self.assertEqual(t.absent, [])
        self.assertGreater(t.span_count, 0)

    def test_missing_layer_is_reported_absent(self):
        gone = ("maxavoid.gone", "maxavoid", "_no_such_helper", ["maxavoid"], {})
        with mock.patch.object(tracer, "LAYERS", tracer.LAYERS + [gone]):
            t = tracer.Tracer()
            t.install()
            try:
                code, out = capture(["maximal", "-B", "11,13"])
            finally:
                t.uninstall()
        self.assertEqual(t.absent, ["maxavoid.gone"])
        self.assertEqual((code, out), capture(["maximal", "-B", "11,13"]))


class CheckTest(unittest.TestCase):
    def query(self, command, required=(), frobenius=None, forbidden=()):
        return Query(command, required, frobenius, forbidden, "text", 1, "test")

    def test_correct_outputs_pass(self):
        for q in (self.query("irreducibles", (4,), 11), self.query("semigroups", (), 9),
                  self.query("maximal", (4, 9), None, (11, 14)),
                  self.query("solve", (), None, (7, 10)), self.query("irreducibles", (4,), 12)):
            code, out = capture(q.argv)
            self.assertEqual(check.check_query(q, code, out), [], q.argv)

    def test_wrong_outputs_fail(self):
        irr = self.query("irreducibles", (4,), 11)
        code, out = capture(irr.argv)
        lines = out.splitlines(keepends=True)
        self.assertTrue(check.check_query(irr, code, "".join(reversed(lines))))  # unsorted
        self.assertTrue(check.check_query(irr, code, out + lines[-1]))  # duplicate
        self.assertTrue(check.check_query(irr, 2, ""))  # feasible input refused
        # not closed: 4 + 4 = 8 is listed as a gap
        self.assertTrue(check.check_query(
            irr, 0, "<4,5,7> | F=11 g=6 gaps={1,2,3,6,8,11}\n"))
        # a valid semigroup with F=11 containing 4, but not irreducible
        self.assertTrue(check.check_query(irr, 0, record([0, 4, 8, 9, 10], 11)))
        # contains A and avoids B, but gap 15 can be filled without generating 11 or 14
        avoid = self.query("maximal", (4, 9), None, (11, 14))
        self.assertTrue(check.check_query(avoid, 0, record([0, 4, 8, 9, 12, 13], 15)))
        self.assertTrue(check.check_query(self.query("semigroups", (5,), 10), 0, ""))


if __name__ == "__main__":
    unittest.main()
