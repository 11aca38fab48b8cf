#!/usr/bin/env python3
"""Unit checks for check_bench_regression.py's bench-counter gate.

Run directly (python3 tools/test_check_bench_regression.py) — stdlib only,
exercised by the CI bench-smoke job. Focus is the failure-message contract:
a baseline row whose counter is absent from the submitted reports must say
*which* report file carried (or should have carried) the row, so a red CI
run points at the bench invocation to fix rather than at a bare name.
"""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression",
    Path(__file__).resolve().parent / "check_bench_regression.py")
checker = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(checker)


def write_json(directory, name, doc):
    path = Path(directory) / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_gate(argv):
    """Run the default bench gate, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = checker.run_bench_gate(argv)
    return code, out.getvalue(), err.getvalue()


def report(rows):
    return {"context": {}, "benchmarks": rows}


class BenchGateMessages(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = self._tmp.name
        self.addCleanup(self._tmp.cleanup)

    def baseline(self, benchmarks):
        return write_json(self.dir, "baseline.json", {
            "counter": "cg_iters", "max_ratio": 2.0,
            "benchmarks": benchmarks,
        })

    def test_within_threshold_passes(self):
        base = self.baseline({"BM_Solve/64": 100})
        rep = write_json(self.dir, "report.json", report(
            [{"name": "BM_Solve/64", "run_type": "iteration",
              "cg_iters": 120}]))
        code, out, _ = run_gate([rep, base])
        self.assertEqual(code, 0)
        self.assertIn("OK: 1 gated counter(s)", out)

    def test_regression_fails_with_ratio(self):
        base = self.baseline({"BM_Solve/64": 100})
        rep = write_json(self.dir, "report.json", report(
            [{"name": "BM_Solve/64", "run_type": "iteration",
              "cg_iters": 500}]))
        code, _, err = run_gate([rep, base])
        self.assertEqual(code, 1)
        self.assertIn("ratio 5.00 > 2.00", err)

    def test_missing_row_names_every_scanned_report(self):
        base = self.baseline({"BM_Absent/1": 10})
        rep_a = write_json(self.dir, "micro.json", report(
            [{"name": "BM_Other/1", "run_type": "iteration", "cg_iters": 3}]))
        rep_b = write_json(self.dir, "serve.json", report([]))
        code, _, err = run_gate([rep_a, rep_b, base])
        self.assertEqual(code, 1)
        self.assertIn("no row with this name in any submitted report", err)
        # Both scanned report files are listed, so the reader knows which
        # bench invocations were checked.
        self.assertIn("micro.json", err)
        self.assertIn("serve.json", err)
        self.assertIn("was the bench that produces it run?", err)

    def test_missing_counter_names_the_report_that_has_the_row(self):
        base = self.baseline({
            "BM_Region/300": {"counter": "region_cone_requests", "value": 32},
        })
        rep_a = write_json(self.dir, "micro.json", report(
            [{"name": "BM_Other/1", "run_type": "iteration", "cg_iters": 3}]))
        rep_b = write_json(self.dir, "serve.json", report(
            [{"name": "BM_Region/300", "run_type": "iteration",
              "requests_served": 32, "wall_ms": 1.5}]))
        code, _, err = run_gate([rep_a, rep_b, base])
        self.assertEqual(code, 1)
        self.assertIn("row found in", err)
        self.assertIn("serve.json", err)
        self.assertIn("no counter 'region_cone_requests'", err)
        # The fields the row *does* carry are listed to aid renaming typos.
        self.assertIn("requests_served", err)
        # The file without the row must not be blamed.
        self.assertNotIn("micro.json but", err)

    def test_list_valued_entry_gates_each_counter(self):
        base = self.baseline({
            "BM_Region/300": [
                {"counter": "requests_served", "value": 32},
                {"counter": "region_cone_requests", "value": 32},
            ],
        })
        rep = write_json(self.dir, "serve.json", report(
            [{"name": "BM_Region/300", "run_type": "iteration",
              "requests_served": 32, "region_cone_requests": 32}]))
        code, out, _ = run_gate([rep, base])
        self.assertEqual(code, 0)
        self.assertIn("OK: 2 gated counter(s)", out)

    def test_zero_baseline_passes_only_exact_zero(self):
        # A baseline of 0 is the exact gate the snapshot-restore rows use:
        # eigen_runs_restore must be identically 0, not merely small.
        base = self.baseline({
            "BM_SnapshotRestore/1500": {
                "counter": "eigen_runs_restore", "value": 0,
                "max_ratio": 1.0},
        })
        rep = write_json(self.dir, "serve.json", report(
            [{"name": "BM_SnapshotRestore/1500", "run_type": "iteration",
              "eigen_runs_restore": 0}]))
        code, out, _ = run_gate([rep, base])
        self.assertEqual(code, 0)
        self.assertIn("OK: 1 gated counter(s)", out)

    def test_zero_baseline_fails_any_positive_value(self):
        base = self.baseline({
            "BM_SnapshotRestore/1500": {
                "counter": "eigen_runs_restore", "value": 0,
                "max_ratio": 1.0},
        })
        rep = write_json(self.dir, "serve.json", report(
            [{"name": "BM_SnapshotRestore/1500", "run_type": "iteration",
              "eigen_runs_restore": 1}]))
        code, _, err = run_gate([rep, base])
        self.assertEqual(code, 1)
        self.assertIn("eigen_runs_restore 1 vs baseline 0", err)

    def test_latency_csv_accepts_a_valid_timeline(self):
        path = Path(self.dir) / "lat.csv"
        path.write_text(checker.LATENCY_CSV_HEADER + "\n"
                        "0,analyze,0.0,1520.4,200,00000000000000a1\n"
                        "1,top-k,2000.0,310.9,200,00000000000000a2\n")
        self.assertEqual(checker.latency_csv_problems(str(path)), [])

    def test_latency_csv_rejects_bad_rows(self):
        path = Path(self.dir) / "lat.csv"
        path.write_text(checker.LATENCY_CSV_HEADER + "\n"
                        "0,analyze,0.0,-3.0,200,00000000000000a1\n"   # latency
                        "2,top-k,2000.0,310.9,200,00000000000000a2\n"  # index
                        "2,,100.0,1.0,999,NOTHEX\n")   # endpoint/status/trace
        problems = checker.latency_csv_problems(str(path))
        text = "\n".join(problems)
        self.assertIn("latency", text)
        self.assertIn("index", text)
        self.assertIn("trace", text)
        self.assertGreaterEqual(len(problems), 4)

    def test_latency_csv_rejects_missing_header_and_empty_timeline(self):
        path = Path(self.dir) / "lat.csv"
        path.write_text("nope\n")
        self.assertTrue(checker.latency_csv_problems(str(path)))
        path.write_text(checker.LATENCY_CSV_HEADER + "\n")
        self.assertTrue(checker.latency_csv_problems(str(path)))

    def test_aggregate_rows_are_ignored(self):
        base = self.baseline({"BM_Solve/64": 100})
        rep = write_json(self.dir, "report.json", report(
            [{"name": "BM_Solve/64", "run_type": "iteration",
              "cg_iters": 100},
             {"name": "BM_Solve/64", "run_type": "aggregate",
              "cg_iters": 99999}]))
        code, out, _ = run_gate([rep, base])
        self.assertEqual(code, 0)
        self.assertIn("OK: 1 gated counter(s)", out)


class ManifestChecks(unittest.TestCase):
    def manifest(self, checksum):
        return {
            "manifest": {"schema_version": 1},
            "build": {"git_describe": "g", "build_type": "Release",
                      "compiler": "c"},
            "run": {"command": "sweep"},
            "checksums": {key: checksum for key in checker.CHECKSUM_KEYS},
        }

    def test_real_checksums_pass(self):
        self.assertEqual(
            checker.manifest_problems("m.json",
                                      self.manifest("0123456789abcdef")), [])

    def test_all_zero_checksum_is_rejected_per_key(self):
        doc = self.manifest("0123456789abcdef")
        doc["checksums"]["eigenvalues"] = "0000000000000000"
        problems = checker.manifest_problems("m.json", doc)
        self.assertEqual(len(problems), 1)
        self.assertIn("checksums.eigenvalues is all zeros", problems[0])
        unset = checker.manifest_problems(
            "m.json", self.manifest("0000000000000000"))
        self.assertEqual(len(unset), len(checker.CHECKSUM_KEYS))


if __name__ == "__main__":
    unittest.main()
