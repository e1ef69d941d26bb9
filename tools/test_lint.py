#!/usr/bin/env python3
"""Unit tests for tools/pto_lint.py and tools/htm_params.py.

Registered in ctest as `lint_unit` (tests/CMakeLists.txt). Covers:
  - HtmConfig parsing out of src/sim/sim.h (the single source of truth for
    HTM capacity): a parse break or a nonsense value must fail loudly;
  - the lint's values match the parser's (no drift back to constants);
  - the multi-line loop regression fixture (do-while tail phantom,
    annotations on multi-line header lines);
  - the seeded-defect fixture is still rejected with the expected kinds,
    its constant slow path as a sentinel fallback;
  - src/ds is clean and the per-file site counts are emitted (the CI
    static-analysis job cross-checks them against pto-analyze's).

When the PTO_PARAMS_DUMP environment variable names a built
pto-htm-params-dump binary (tools/analyze/), the C++ and python parsers are
compared field-for-field -- the drift half of the htm-params ctest.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from htm_params import FIELDS, HtmParamsError, parse_htm_params  # noqa: E402


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "pto_lint.py"), "--no-clang",
         "--json"] + list(args),
        capture_output=True, text=True, cwd=ROOT)
    doc = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, doc, proc.stderr


class HtmParamsTest(unittest.TestCase):
    def test_parse_succeeds_with_sane_values(self):
        params = parse_htm_params()
        self.assertEqual(set(params), set(FIELDS))
        self.assertGreater(params["max_write_lines"], 0)
        self.assertGreaterEqual(params["max_read_lines"],
                                params["max_write_lines"])
        self.assertGreater(params["max_duration"], 0)

    def test_parse_failure_is_loud(self):
        import tempfile
        with tempfile.NamedTemporaryFile("w", suffix=".h") as f:
            f.write("struct HtmConfig { int unrelated = 3; };\n")
            f.flush()
            with self.assertRaises(HtmParamsError):
                parse_htm_params(f.name)
        with self.assertRaises(HtmParamsError):
            parse_htm_params("/nonexistent/sim.h")

    def test_lint_reports_parsed_params(self):
        rc, doc, _ = run_lint()
        self.assertEqual(rc, 0)
        params = parse_htm_params()
        self.assertEqual(doc["htm_params"], params)
        self.assertEqual(doc["max_write_lines"], params["max_write_lines"])
        self.assertEqual(doc["max_read_lines"], params["max_read_lines"])

    def test_no_drift_against_cpp_parser(self):
        """Compare with tools/analyze's C++ parser when it is built."""
        dump = os.environ.get("PTO_PARAMS_DUMP")
        if not dump:
            self.skipTest("PTO_PARAMS_DUMP not set (pto-analyze not built)")
        proc = subprocess.run(
            [dump, os.path.join(ROOT, "src", "sim", "sim.h")],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        cpp = json.loads(proc.stdout)
        self.assertEqual(cpp, parse_htm_params())


class MultilineLoopTest(unittest.TestCase):
    FIXTURE = os.path.join(HERE, "lint_fixtures", "multiline_loops.h")

    def setUp(self):
        rc, doc, err = run_lint(self.FIXTURE)
        self.rc, self.doc, self.err = rc, doc, err
        self.assertIsNotNone(doc, err)
        self.assertEqual(len(self.doc["sites"]), 2, self.doc)

    def test_annotated_multiline_loops_are_clean(self):
        good = self.doc["sites"][0]
        self.assertEqual(good["violations"], [], good)
        # bounded(8) on the while's continuation line multiplies its body.
        self.assertGreaterEqual(good["est_write_lines"], 1)

    def test_unannotated_do_while_flagged_once_at_do_line(self):
        bad = self.doc["sites"][1]
        self.assertEqual(self.rc, 1)
        self.assertEqual(len(bad["violations"]), 1, bad)
        v = bad["violations"][0]
        self.assertEqual(v["kind"], "unbounded-loop")
        # The `do` keyword's line -- not the trailing while's. Locate it in
        # the fixture text so the assertion survives edits above it.
        with open(self.FIXTURE) as f:
            lines = f.read().splitlines()
        do_lines = [i + 1 for i, l in enumerate(lines)
                    if l.strip().startswith("do {")]
        self.assertIn(v["line"], do_lines)
        tail_lines = [i + 1 for i, l in enumerate(lines)
                      if l.strip().startswith("} while")]
        self.assertNotIn(v["line"], tail_lines)


class FixtureRejectionTest(unittest.TestCase):
    def test_bad_prefix_fixture_rejected(self):
        rc, doc, _ = run_lint(
            os.path.join(HERE, "lint_fixtures", "bad_prefix.h"))
        self.assertEqual(rc, 1)
        kinds = {v["kind"] for s in doc["sites"] for v in s["violations"]}
        self.assertLessEqual({"allocation", "raw-fence", "unbounded-loop",
                              "sentinel-fallback"}, kinds)


class DsCleanTest(unittest.TestCase):
    def test_src_ds_clean_with_site_counts(self):
        rc, doc, err = run_lint()
        self.assertEqual(rc, 0, err)
        self.assertTrue(doc["ok"])
        self.assertGreaterEqual(len(doc["sites"]), 20)
        counts = doc["site_counts"]
        self.assertEqual(sum(counts.values()), len(doc["sites"]))
        for path in counts:
            self.assertTrue(path.startswith("src/ds/"), path)


if __name__ == "__main__":
    unittest.main(verbosity=2)
