#!/usr/bin/env python3
"""Unit test for tools/speedgate.py.

Drives the real svc gate over two fake build directories whose
bench/svc_kv is a small script writing seeded throughput: equal sides pass,
a uniform 20% loss fails, a 25% loss at the 4-thread points alone fails, a
run exiting 139 or hanging fails and names the run, and the sides
alternate. The shape
checks (4t/1t scaling, the 1M ops/s floor, the sim linear tail) run on
synthetic medians. Run directly or via ctest (speedgate_unit).
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import speedgate  # noqa: E402

FAKE = """#!{python} -S
import json, os, random, sys, time
here = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(here, "spec.json")) as f:
    spec = json.load(f)
with open(spec["log"], "a") as f:
    f.write(spec["side"] + "\\n")
with open(spec["log"]) as f:
    rng = random.Random(len(f.readlines()))
if spec["exit"] == "hang":
    time.sleep(60)
if spec["exit"]:
    sys.exit(spec["exit"])
pts = [{{"series": s, "threads": t, "shards": 4,
        "ops_per_sec": 1e6 * t * spec["scale"][str(t)] * rng.uniform(0.9, 1.1)}}
       for s in ("skip/pto", "skip/lf") for t in (1, 2, 4)]
with open("BENCH_svc.json", "w") as f:
    json.dump({{"bench": "svc_kv", "nproc": 4, "htm_backend": "soft",
               "points": pts}}, f)
"""


def quiet(fn, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = fn(*args)
    return rc, out.getvalue()


class Gate(unittest.TestCase):
    def gate(self, head_scale=None, head_exit=0):
        """Run the svc gate; the base side runs at scale 1 everywhere."""
        tmp = tempfile.mkdtemp(prefix="speedgate-test-")
        self.addCleanup(shutil.rmtree, tmp)
        self.log = os.path.join(tmp, "order.log")
        for side, scale, code in (("base", {}, 0),
                                  ("head", head_scale or {}, head_exit)):
            bench = os.path.join(tmp, side, "bench")
            os.makedirs(bench)
            with open(os.path.join(bench, "spec.json"), "w") as f:
                json.dump({"side": side, "log": self.log, "exit": code,
                           "scale": {str(t): scale.get(t, 1.0)
                                     for t in (1, 2, 4)}}, f)
            exe = os.path.join(bench, "svc_kv")
            with open(exe, "w") as f:
                f.write(FAKE.format(python=sys.executable))
            os.chmod(exe, 0o755)
        return quiet(speedgate.main, ["speedgate.py", "svc",
                                      os.path.join(tmp, "base"),
                                      os.path.join(tmp, "head")])

    def test_equal_sides_pass(self):
        rc, text = self.gate()
        self.assertEqual(rc, 0, text)
        self.assertIn("speedgate svc: OK", text)

    def test_uniform_20pct_loss_fails(self):
        rc, text = self.gate({1: 0.8, 2: 0.8, 4: 0.8})
        self.assertEqual(rc, 1, text)
        self.assertEqual(text.count("<< FAIL"), 3, text)

    def test_25pct_loss_at_4_threads_fails_there_only(self):
        rc, text = self.gate({4: 0.75})
        self.assertEqual(rc, 1, text)
        self.assertIn("FAIL: threads=4", text)
        self.assertEqual(text.count("<< FAIL"), 1, text)

    def test_crashed_run_fails_and_is_named(self):
        rc, text = self.gate(head_exit=139)
        self.assertEqual(rc, 1, text)
        self.assertRegex(text, r"pair 1, head run \(.*svc_kv\): exit status 139")

    def test_hung_run_fails_and_is_named(self):
        with mock.patch.object(speedgate, "RUN_TIMEOUT_S", 1):
            rc, text = self.gate(head_exit="hang")
        self.assertEqual(rc, 1, text)
        self.assertIn("pair 1, head run", text)
        self.assertIn("no exit within 1 s", text)

    def test_sides_alternate(self):
        self.gate()
        with open(self.log) as f:
            order = f.read().split()
        want = [["base", "head"], ["head", "base"]] * 10
        self.assertEqual(order, [s for pair in want for s in pair])


def svc_med(series):
    return {(s, t): ops for s, pts in series.items() for t, ops in pts.items()}


GOOD = {"skip/pto": {1: 1.0e6, 2: 1.9e6, 4: 3.2e6},
        "skip/lf": {1: 1.0e6, 2: 1.6e6, 4: 2.4e6}}
FLAT = dict(GOOD, **{"skip/lf": {1: 1.2e6, 2: 1.1e6, 4: 1.0e6}})
META = {"nproc": 4, "htm_backend": "soft"}


class Shape(unittest.TestCase):
    def shape(self, series, meta=META):
        return quiet(speedgate.svc_shape, svc_med(series), meta)

    def test_scaling_series_pass(self):
        fails, text = self.shape(GOOD)
        self.assertEqual(fails, [])
        self.assertEqual(text.count("OK"), 3, text)  # two series + floor

    def test_flat_series_fails_with_its_ratio(self):
        fails, _ = self.shape(FLAT)
        self.assertEqual(len(fails), 1, fails)
        self.assertIn("skip/lf", fails[0])
        self.assertIn("0.83", fails[0])

    def test_fewer_cpus_than_threads_skips(self):
        fails, text = self.shape(FLAT, {"nproc": 2})
        self.assertEqual(fails, [])
        self.assertTrue(text.startswith("skip"), text)

    def test_missing_nproc_fails(self):
        fails, _ = self.shape(GOOD, {})
        self.assertTrue(fails and "nproc" in fails[0], fails)

    def test_missing_point_fails(self):
        fails, _ = self.shape(dict(GOOD, **{"skip/lf": {1: 1.0e6}}))
        self.assertTrue(any("threads=4" in f for f in fails), fails)

    def test_1m_floor(self):
        slow = {s: {t: v / 4 for t, v in p.items()} for s, p in GOOD.items()}
        fails, _ = self.shape(slow)
        self.assertEqual(len(fails), 1, fails)
        self.assertIn("below 1e6", fails[0])

    def test_sim_linear_tail(self):
        med = {("sim", 64): 4e6, ("sim", 256): 1.2e6, ("sim", 1024): 0.1e6}
        fails, _ = quiet(speedgate.sim_shape, med, {})
        self.assertEqual(len(fails), 1, fails)
        self.assertIn("vthreads=1024", fails[0])


if __name__ == "__main__":
    unittest.main()
