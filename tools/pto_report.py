#!/usr/bin/env python3
"""Pretty-print PTO telemetry dumps: PTO_PROF records and PTO_STATS points.

For the profiler's end-of-run JSON record (PTO_PROF=json, optionally
redirected with PTO_PROF_OUT) it renders, per scope:

  * the top-N hot lines: each cache line by its order of first conflict in
    the scope (#0, #1, ...), its owner site, conflict-abort count, doomed
    cycles;
  * the site x site conflict matrix (victim rows, aggressor columns) as an
    aligned text table;
  * the per-site savings ledger: where the PTO speedup came from, by latency
    class, plus the costs paid (tx overhead, retry waste).

For PTO_STATS=json bench_point records (schema v2) it renders:

  * a throughput/latency table with the PTO_OBS percentile columns
    (p50/p90/p99/p999/max, nanoseconds) per measured point;
  * the per-cause abort breakdown (prefix_aborts buckets) with attempt,
    commit, and fallback totals.

Input may be a bare JSON object or a mixed log; every line is scanned. The
last pto_prof record wins; every bench_point record is shown.

Usage:
  pto_report.py [FILE] [--topn 10]          # FILE defaults to stdin
"""

import argparse
import json
import os
import sys


def find_record(text):
    """Return the last pto_prof record in `text` (whole-doc or per-line)."""
    try:
        doc = json.loads(text)
        if isinstance(doc, dict) and doc.get("type") == "pto_prof":
            return doc
    except ValueError:
        pass
    rec = None
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict) and doc.get("type") == "pto_prof":
            rec = doc
    return rec


def find_bench_points(text):
    """Return every bench_point record in `text`, in input order."""
    points = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict) and doc.get("type") == "bench_point":
            points.append(doc)
    return points


def table(rows, headers, align_left):
    """Render rows as an aligned text table; align_left is a per-column bool."""
    cols = [[h] + [str(r[i]) for r in rows] for i, h in enumerate(headers)]
    widths = [max(len(c) for c in col) for col in cols]
    out = []
    for r in range(len(rows) + 1):
        cells = []
        for i, col in enumerate(cols):
            cells.append(col[r].ljust(widths[i]) if align_left[i] else col[r].rjust(widths[i]))
        out.append("  ".join(cells).rstrip())
        if r == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def print_hot_lines(scope, topn):
    lines = scope.get("hot_lines", [])[:topn]
    print(f"  top {min(topn, len(lines))} hot lines "
          f"(of {len(scope.get('hot_lines', []))}):")
    if not lines:
        print("    (no conflict aborts recorded)")
        return
    rows = [
        (f"#{h['line']}", h["owner"], h["aborts"], h["doomed_cycles"])
        for h in lines
    ]
    txt = table(rows, ["line", "owner", "aborts", "doomed_cycles"],
                [True, True, False, False])
    print("    " + txt.replace("\n", "\n    "))


def print_matrix(scope):
    cells = scope.get("matrix", [])
    print("  conflict matrix (victim rows x aggressor columns, abort counts):")
    if not cells:
        print("    (no conflicts)")
        return
    victims = sorted({c["victim"] for c in cells})
    aggressors = sorted({c["aggressor"] for c in cells})
    counts = {(c["victim"], c["aggressor"]): c["count"] for c in cells}
    rows = []
    for v in victims:
        row = [v] + [counts.get((v, a), 0) or "." for a in aggressors]
        row.append(sum(counts.get((v, a), 0) for a in aggressors))
        rows.append(row)
    headers = ["victim \\ aggressor"] + aggressors + ["total"]
    txt = table(rows, headers, [True] + [False] * (len(aggressors) + 1))
    print("    " + txt.replace("\n", "\n    "))


def print_ledger(scope):
    sites = scope.get("sites", [])
    explained = [s for s in sites if s.get("fallback_count", 0) > 0
                 and s.get("fast_count", 0) > 0]
    if not sites:
        return
    print("  cycle ledger (per committed op, savings vs own fallback profile):")
    rows = []
    for s in sites:
        sv = s.get("savings", {})
        rows.append((
            s["site"], s["fast_count"], s["fallback_count"],
            f"{sv.get('fence_removed', 0):.0f}",
            f"{sv.get('second_read_collapsed', 0):.0f}",
            f"{sv.get('store_sync_removed', 0):.0f}",
            f"{sv.get('alloc_avoided', 0):.0f}",
            f"{sv.get('tx_overhead', 0):.0f}",
            f"{sv.get('retry_waste', 0):.0f}",
            f"{sv.get('explained', 0):.0f}",
        ))
    txt = table(
        rows,
        ["site", "commits", "fallbacks", "fence", "2nd_read", "store/sync",
         "alloc", "-txov", "-retry", "explained"],
        [True] + [False] * 9,
    )
    print("    " + txt.replace("\n", "\n    "))
    if not explained:
        print("    (no site has both fast and fallback populations; "
              "class savings undefined)")


ABORT_BUCKETS = ["conflict", "capacity", "explicit", "duration", "spurious",
                 "other"]


def print_bench_latency(points):
    print("bench points (latency, ns; samples from PTO_OBS histograms):")
    rows = []
    for p in points:
        lat = p.get("latency", {})
        rows.append((
            p.get("bench", "?"), p.get("series", "?"), p.get("threads", 0),
            f"{p.get('ops_per_ms', 0):.1f}", lat.get("samples", 0),
            lat.get("p50_ns", 0), lat.get("p90_ns", 0), lat.get("p99_ns", 0),
            lat.get("p999_ns", 0), lat.get("max_ns", 0),
        ))
    txt = table(rows, ["bench", "series", "threads", "ops/ms", "samples",
                       "p50", "p90", "p99", "p999", "max"],
                [True, True] + [False] * 8)
    print("  " + txt.replace("\n", "\n  "))


def print_bench_aborts(points):
    print("abort breakdown (prefix attempts, by decoded cause):")
    rows = []
    for p in points:
        ab = p.get("prefix_aborts", {})
        rows.append((
            p.get("bench", "?"), p.get("series", "?"), p.get("threads", 0),
            p.get("prefix_attempts", 0), p.get("prefix_commits", 0),
            p.get("prefix_fallbacks", 0),
        ) + tuple(ab.get(b, 0) for b in ABORT_BUCKETS))
    txt = table(rows, ["bench", "series", "threads", "attempts", "commits",
                       "fallbacks"] + ABORT_BUCKETS,
                [True, True] + [False] * 10)
    print("  " + txt.replace("\n", "\n  "))


def print_bench_points(points):
    print_bench_latency(points)
    print()
    print_bench_aborts(points)
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", nargs="?", help="PTO_PROF=json dump (default stdin)")
    ap.add_argument("--topn", type=int, default=10,
                    help="hot lines to show per scope (default 10)")
    args = ap.parse_args()

    if args.file:
        with open(args.file, "r", encoding="utf-8") as f:
            text = f.read()
    else:
        text = sys.stdin.read()

    rec = find_record(text)
    points = find_bench_points(text)
    if rec is None and not points:
        raise SystemExit("no pto_prof or bench_point records found in input "
                         "(run with PTO_PROF=json and/or PTO_STATS=json)")

    if points:
        print_bench_points(points)
    if rec is None:
        return 0

    for scope in rec.get("scopes", []):
        empty = (not scope.get("sites") and not scope.get("matrix")
                 and not scope.get("hot_lines")
                 and not any(scope.get("unattributed", {}).values()))
        if empty:
            continue
        label = scope.get("label") or "(default scope)"
        print(f"scope: {label}")
        print_ledger(scope)
        print_hot_lines(scope, args.topn)
        print_matrix(scope)
        print()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed early; not an error worth a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
