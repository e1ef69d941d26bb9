#!/usr/bin/env python3
"""CI perf gate for the sharded KV service.

Compares a fresh BENCH_svc.json (written by bench/svc_kv) against the
committed baseline, matching points on (series, threads), and fails when
throughput drops more than --tolerance below the baseline. Like
check_sim_speed.py this exists to catch structural regressions (a lock or
allocation creeping into the service hot path, a pinning or batching bug
serializing the shards), not single-digit jitter — the committed baseline is
deliberately conservative.

--require T:S:MIN adds an absolute floor, independent of the baseline: the
current run must contain at least one point with threads=T and shards=S whose
ops_per_sec is >= MIN. CI uses this to enforce the service's headline
acceptance number (1M ops/sec aggregate at 4 shards / 4 threads) rather than
just relative drift.

--min-scaling HI:LO:R gates thread scaling on one host, which no baseline
from another host can: in every series of the current run, throughput at HI
threads must be at least R times throughput at LO threads. The check needs
the `nproc` that svc_kv records; on a host with fewer than HI CPUs it prints
a skip, since the HI-thread point then measures time-slicing.

Usage:
  check_svc_speed.py BASELINE CURRENT [--tolerance 0.4]
                     [--require 4:4:1000000] ... [--min-scaling 4:1:1.5] ...

Exit status: 0 when every matched point is within tolerance and every
--require floor and --min-scaling ratio holds, 1 otherwise.
"""

import argparse
import json
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("bench") != "svc_kv":
        raise SystemExit(f"{path}: not a svc_kv dump")
    return doc


def points_by_key(doc):
    return {(p["series"], int(p["threads"])): p for p in doc.get("points", [])}


def parse_require(spec):
    try:
        t, s, m = spec.split(":")
        return int(t), int(s), float(m)
    except ValueError:
        raise SystemExit(f"bad --require spec '{spec}' (want THREADS:SHARDS:MIN)")


def parse_scaling(spec):
    try:
        hi, lo, r = spec.split(":")
        return int(hi), int(lo), float(r)
    except ValueError:
        raise SystemExit(f"bad --min-scaling spec '{spec}' (want HI:LO:RATIO)")


def check_scaling(doc, spec):
    """True when every series scales from LO to HI threads by at least R."""
    hi, lo, want = parse_scaling(spec)
    if "nproc" not in doc:
        print(f"FAIL: --min-scaling {spec}: the current run records no nproc "
              "(written by svc_kv since the field was added)", file=sys.stderr)
        return False
    nproc = int(doc["nproc"])
    if nproc < hi:
        print(f"skip --min-scaling {spec}: nproc {nproc} < {hi} threads")
        return True
    by_series = {}
    for p in doc.get("points", []):
        by_series.setdefault(p["series"], {})[int(p["threads"])] = float(
            p["ops_per_sec"])
    if not by_series:
        print(f"FAIL: --min-scaling {spec}: no points", file=sys.stderr)
        return False
    ok = True
    for series, pts in sorted(by_series.items()):
        if hi not in pts or lo not in pts or pts[lo] <= 0:
            print(f"FAIL: {series}: no usable points at threads={lo} and "
                  f"threads={hi}", file=sys.stderr)
            ok = False
            continue
        ratio = pts[hi] / pts[lo]
        if ratio < want:
            print(f"FAIL: {series}: {hi}t/{lo}t = {ratio:.2f}, below the "
                  f"required {want:.2f} (nproc {nproc}, "
                  f"{doc.get('htm_backend', '?')} backend)", file=sys.stderr)
            ok = False
        else:
            print(f"scaling {series}: {hi}t/{lo}t = {ratio:.2f} >= {want:.2f}  OK")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.4,
        help="maximum allowed fractional drop below baseline (default 0.4: "
        "wall-clock service throughput on shared CI runners is noisy)",
    )
    ap.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="T:S:MIN",
        help="absolute floor: current run must have a point with threads=T, "
        "shards=S and ops_per_sec >= MIN (repeatable)",
    )
    ap.add_argument(
        "--min-scaling",
        action="append",
        default=[],
        metavar="HI:LO:R",
        help="every series must reach R x its LO-thread throughput at HI "
        "threads; skipped when the run's nproc < HI (repeatable)",
    )
    args = ap.parse_args()

    base_doc = load(args.baseline)
    cur_doc = load(args.current)
    base = points_by_key(base_doc)
    cur = points_by_key(cur_doc)

    failed = []
    shared = sorted(set(base) & set(cur))
    if shared:
        print(f"{'series':>28} {'t':>3} {'baseline':>12} {'current':>12} {'ratio':>6}")
        for key in shared:
            b = float(base[key]["ops_per_sec"])
            c = float(cur[key]["ops_per_sec"])
            if b <= 0:
                raise SystemExit(f"baseline ops_per_sec at {key} is not positive")
            ratio = c / b
            floor = 1.0 - args.tolerance
            mark = "" if ratio >= floor else "  << FAIL"
            print(f"{key[0]:>28} {key[1]:>3} {b:>12.3e} {c:>12.3e} {ratio:>6.2f}{mark}")
            if ratio < floor:
                failed.append((key, ratio))
    elif base:
        # Different geometry (shards/skew env overrides) yields disjoint series
        # labels; that's a config error in the CI invocation, not a perf pass.
        raise SystemExit("no common (series, threads) points between baseline and current")

    if failed:
        worst = min(failed, key=lambda x: x[1])
        print(
            f"\nFAIL: {len(failed)} point(s) below {1.0 - args.tolerance:.2f}x "
            f"baseline (worst: {worst[0]} at {worst[1]:.2f}x). "
            "The service hot path regressed; see bench/svc_kv.cpp.",
            file=sys.stderr,
        )
        return 1
    if shared:
        print(f"\nOK: all {len(shared)} points within {args.tolerance:.0%} of baseline.")

    ok = True
    for spec in args.require:
        t, s, floor = parse_require(spec)
        best = max(
            (
                float(p["ops_per_sec"])
                for p in cur_doc.get("points", [])
                if int(p["threads"]) == t and int(p.get("shards", -1)) == s
            ),
            default=None,
        )
        if best is None:
            print(
                f"FAIL: no point with threads={t} shards={s} in current run",
                file=sys.stderr,
            )
            ok = False
        elif best < floor:
            print(
                f"FAIL: best ops_per_sec at threads={t} shards={s} is "
                f"{best:.3e}, below the required {floor:.3e}",
                file=sys.stderr,
            )
            ok = False
        else:
            print(f"require {spec}: best {best:.3e} >= {floor:.3e}  OK")
    for spec in args.min_scaling:
        ok = check_scaling(cur_doc, spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
