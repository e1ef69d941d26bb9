#!/usr/bin/env python3
"""Unit test for check_svc_speed.py's --min-scaling gate.

Feeds synthetic BENCH_svc.json documents to check_scaling(): series that
scale pass, one that does not fails, a host with fewer CPUs than the HI
thread count skips, and a run without nproc or without a needed point fails
loudly. One end-to-end CLI call checks the flag is wired into main(). Run
directly or via ctest (check_svc_speed_unit).
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import check_svc_speed  # noqa: E402


def doc(nproc, series):
    d = {"bench": "svc_kv", "points": []}
    if nproc is not None:
        d["nproc"] = nproc
        d["htm_backend"] = "soft"
    for name, by_threads in series.items():
        for t, ops in by_threads.items():
            d["points"].append({"series": name, "threads": t, "shards": 4,
                                "ops_per_sec": ops})
    return d


def scaling(d, spec):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        ok = check_svc_speed.check_scaling(d, spec)
    return ok, out.getvalue() + err.getvalue()


def main():
    good = {"skip/pto": {1: 1.0e6, 2: 1.9e6, 4: 3.2e6},
            "skip/lf": {1: 1.0e6, 2: 1.6e6, 4: 2.4e6}}
    ok, text = scaling(doc(4, good), "4:1:1.5")
    assert ok, text
    assert text.count("OK") == 2, text

    flat = dict(good, **{"skip/lf": {1: 1.2e6, 2: 1.1e6, 4: 1.0e6}})
    ok, text = scaling(doc(4, flat), "4:1:1.5")
    assert not ok and "skip/lf" in text and "0.83" in text, text

    ok, text = scaling(doc(2, flat), "4:1:1.5")
    assert ok and text.startswith("skip"), text

    ok, text = scaling(doc(None, good), "4:1:1.5")
    assert not ok and "nproc" in text, text

    ok, text = scaling(doc(8, good), "8:1:1.5")
    assert not ok and "threads=8" in text, text

    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "base.json")
        cur = os.path.join(tmp, "cur.json")
        with open(base, "w", encoding="utf-8") as f:
            json.dump(doc(4, good), f)
        with open(cur, "w", encoding="utf-8") as f:
            json.dump(doc(4, flat), f)
        script = os.path.join(HERE, "check_svc_speed.py")
        run = [sys.executable, script, base, cur, "--tolerance", "0.9"]
        assert subprocess.run(run, capture_output=True).returncode == 0
        res = subprocess.run(run + ["--min-scaling", "4:1:1.5"],
                             capture_output=True, text=True)
        assert res.returncode == 1, res.stdout + res.stderr
    print("check_svc_speed --min-scaling: all cases OK")


if __name__ == "__main__":
    main()
