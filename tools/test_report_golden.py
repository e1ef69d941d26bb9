#!/usr/bin/env python3
"""Golden-output test for pto_report.py, the one renderer of both records.

Renders tools/report_fixtures/bench_points.json (PTO_STATS bench points) and
bench/golden/prof/fig3.json (the pinned PTO_PROF report) and diffs each
against its golden text byte for byte, so table layout and the fields shown
are pinned. Registered as a ctest (`report_golden`); rerun with a refreshed
golden after an intentional format change:

  python3 tools/pto_report.py tools/report_fixtures/bench_points.json \\
      > tools/report_fixtures/bench_points.golden.txt
  python3 tools/pto_report.py bench/golden/prof/fig3.json \\
      > tools/report_fixtures/prof_fig3.golden.txt
"""

import difflib
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
CASES = [
    (HERE / "report_fixtures" / "bench_points.json",
     HERE / "report_fixtures" / "bench_points.golden.txt"),
    (HERE.parent / "bench" / "golden" / "prof" / "fig3.json",
     HERE / "report_fixtures" / "prof_fig3.golden.txt"),
]


def main():
    failed = 0
    for fixture, golden in CASES:
        got = subprocess.run(
            [sys.executable, str(HERE / "pto_report.py"), str(fixture)],
            capture_output=True, text=True, check=True).stdout
        want = golden.read_text(encoding="utf-8")
        if got == want:
            continue
        failed += 1
        sys.stdout.writelines(difflib.unified_diff(
            want.splitlines(keepends=True), got.splitlines(keepends=True),
            fromfile=str(golden), tofile=f"pto_report.py {fixture.name}"))
    if failed:
        print("report_golden: FAIL (see diff; refresh the golden if intended)")
        return 1
    print("report_golden: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
