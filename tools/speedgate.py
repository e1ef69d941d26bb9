#!/usr/bin/env python3
"""Interleaved A/B speed gate: the change's build against the merge-base's.

Runs one bench from the base build (A, the merge-base) and from the head
build (B, the change) as alternating processes in the same job, each in a
fresh temporary directory. Within each pair it takes the head/base
throughput ratio at every thread count (the geomean over the bench's series
at that count). A thread count fails when the distribution-free upper bound
on its median ratio lies below THRESHOLD: the k-th smallest of the n pair
ratios, k the least index with P(Binomial(n, 1/2) >= k) <= ALPHA. Judging
each thread count alone is what lets the gate see a change in scaling,
which one geomean over all points would dilute. Same-run shape checks on
the head's per-point medians ride along. A run that exits nonzero, hangs past
RUN_TIMEOUT_S or writes no JSON fails the gate at once; runs are never
retried.

Each gate's binary, environment, parser, pair count and shape check are
constants in GATES below; there are no knobs.

Usage: speedgate.py {svc,sim} BASE_BUILD_DIR HEAD_BUILD_DIR
Exit status: 0 when the gate passes, 1 when it fails.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

THRESHOLD = 0.90
ALPHA = 0.025
RUN_TIMEOUT_S = 300  # a hung run (a livelocked bench) fails the gate


def bound_index(n):
    """Least k with P(Binomial(n, 1/2) >= k) <= ALPHA (1-based)."""
    k = n
    while k > 1 and sum(math.comb(n, j) for j in range(k - 1, n + 1)) <= ALPHA * 2**n:
        k -= 1
    return k


def upper_bound(ratios):
    """The median ratio lies at or below this with probability >= 1 - ALPHA."""
    return sorted(ratios)[bound_index(len(ratios)) - 1]


def svc_points(doc):
    return {(p["series"], int(p["threads"])): float(p["ops_per_sec"])
            for p in doc["points"]}


def sim_points(doc):
    return {("sim", int(p["vthreads"])): float(p["host_ops_per_sec"])
            for p in doc["points"]}


def svc_shape(med, meta):
    """Every series keeps 4t/1t >= 1.5 (on >= 4 CPUs) and the best 4-thread
    point stays >= 1M ops/s. Returns the failure messages."""
    if "nproc" not in meta:
        return ["4t/1t scaling: the head run records no nproc"]
    fails = []
    series = sorted({s for s, _ in med})
    if meta["nproc"] < 4:
        print(f"skip 4t/1t scaling: nproc {meta['nproc']} < 4 threads")
    for s in series if meta["nproc"] >= 4 else []:
        lo, hi = med.get((s, 1)), med.get((s, 4))
        if not lo or hi is None:
            fails.append(f"{s}: no usable points at threads=1 and threads=4")
        elif hi / lo < 1.5:
            fails.append(f"{s}: 4t/1t = {hi / lo:.2f}, below 1.50 (nproc "
                         f"{meta['nproc']}, {meta.get('htm_backend')} backend)")
        else:
            print(f"scaling {s}: 4t/1t = {hi / lo:.2f} >= 1.50  OK")
    best = max((med.get((s, 4), 0.0) for s in series), default=0.0)
    if best < 1e6:
        fails.append(f"best 4-thread point is {best:.3e} ops/s, below 1e6")
    else:
        print(f"floor: best 4-thread point {best:.3e} >= 1e6 ops/s  OK")
    return fails


def sim_shape(med, _meta):
    """Past 64 vthreads the per-op cost grows at most linearly in N, with
    0.25 slack: throughput at N >= (throughput at 64) * 64 / N * 0.75."""
    anchor = med.get(("sim", 64))
    fails = []
    for _, vt in sorted(k for k in med if anchor and k[1] > 64):
        floor = anchor * 64 / vt * 0.75
        if med[("sim", vt)] < floor:
            fails.append(f"vthreads={vt}: {med[('sim', vt)]:.3e} below the "
                         f"linear floor {floor:.3e}")
        else:
            print(f"linear tail vthreads={vt}: {med[('sim', vt)]:.3e} >= "
                  f"{floor:.3e}  OK")
    return fails


GATES = {
    # The service-smoke geometry, histograms and interval sampler armed.
    "svc": dict(
        binary="bench/svc_kv", output="BENCH_svc.json", pairs=20,
        points=svc_points, shape=svc_shape,
        env={"PTO_HTM": "soft", "PTO_STATS": "json", "PTO_SVC_SHARDS": "4",
             "PTO_BENCH_OPS": "200000", "PTO_BENCH_TRIALS": "3",
             "PTO_BENCH_MAXT": "4", "PTO_BENCH_SWEEP": "geom",
             "PTO_OBS": "1", "PTO_OBS_SAMPLE": "16", "PTO_METRICS": "100"}),
    "sim": dict(
        binary="bench/abl_sim_speed", output="BENCH_sim.json", pairs=20,
        points=sim_points, shape=sim_shape,
        env={"PTO_SIM_SPEED_OPS": "200000", "PTO_SIM_SPEED_REPS": "3"}),
}


class RunFailed(Exception):
    pass


def run(gate, build, pair, side):
    """One bench process in a fresh directory; returns its parsed JSON."""
    exe = os.path.join(os.path.abspath(build), gate["binary"])
    env = {k: v for k, v in os.environ.items() if not k.startswith("PTO_")}
    env.update(gate["env"])
    with tempfile.TemporaryDirectory(prefix="speedgate-") as cwd:
        try:
            proc = subprocess.run([exe], cwd=cwd, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired as e:
            raise RunFailed(f"pair {pair}, {side} run ({exe}): no exit "
                            f"within {RUN_TIMEOUT_S} s, killed") from e
        out = os.path.join(cwd, gate["output"])
        if proc.returncode != 0 or not os.path.exists(out):
            rc = proc.returncode
            why = (f"exit status {rc if rc > 0 else 128 - rc}" if rc
                   else f"wrote no {gate['output']}")
            raise RunFailed(f"pair {pair}, {side} run ({exe}): {why}\n"
                            f"{proc.stderr[-2000:]}")
        with open(out, "r", encoding="utf-8") as f:
            try:
                return json.load(f)
            except ValueError as e:
                raise RunFailed(f"pair {pair}, {side} run ({exe}): "
                                f"unreadable {gate['output']}: {e}") from e


def collect(gate, base, head):
    """Alternating pairs. Returns {threads: [(base, head), ...]}, each value
    the geomean over series at that thread count, and the head's docs."""
    vals, heads = {}, []
    for i in range(1, gate["pairs"] + 1):
        order = [("base", base), ("head", head)]
        docs = {side: run(gate, build, i, side)
                for side, build in (order if i % 2 else order[::-1])}
        b, h = (gate["points"](docs[s]) for s in ("base", "head"))
        if set(b) != set(h):
            raise RunFailed(f"pair {i}: points differ between runs (base "
                            f"only {sorted(set(b) - set(h))}, head only "
                            f"{sorted(set(h) - set(b))})")
        for t in sorted({t for _, t in b}):
            keys = [k for k in b if k[1] == t]
            vals.setdefault(t, []).append(tuple(
                statistics.geometric_mean([x[k] for k in keys]) for x in (b, h)))
        heads.append(docs["head"])
    return vals, heads


def git_sha(build):
    """The commit of the source tree this build was configured from."""
    try:
        with open(os.path.join(build, "CMakeCache.txt"), encoding="utf-8") as f:
            src = next(l.split("=", 1)[1].strip() for l in f
                       if l.startswith("CMAKE_HOME_DIRECTORY:"))
        return subprocess.run(["git", "-C", src, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, StopIteration, subprocess.CalledProcessError):
        return "unknown"


def main(argv):
    if len(argv) != 4 or argv[1] not in GATES:
        print(__doc__, file=sys.stderr)
        return 2
    name, base, head = argv[1:]
    gate = GATES[name]
    n = gate["pairs"]
    print(f"speedgate {name}: {n} interleaved pairs, base {git_sha(base)} vs "
          f"head {git_sha(head)}, nproc {len(os.sched_getaffinity(0))}")
    try:
        vals, heads = collect(gate, base, head)
    except RunFailed as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    print(f"htm backend {heads[-1].get('htm_backend', 'simx')}; bound = "
          f"{bound_index(n)}-th smallest of {n} ratios; fail below "
          f"{THRESHOLD:.2f}")
    print(f"{'threads':>8} {'base':>10} {'head':>10} {'ratio':>6} {'bound':>6}")
    fails = []
    for t, pairs in vals.items():
        ratios = [h / b for b, h in pairs]
        bound = upper_bound(ratios)
        mark = "  << FAIL" if bound < THRESHOLD else ""
        print(f"{t:>8} {statistics.median(b for b, _ in pairs):>10.3e} "
              f"{statistics.median(h for _, h in pairs):>10.3e} "
              f"{statistics.median(ratios):>6.3f} {bound:>6.3f}{mark}")
        if mark:
            fails.append(f"threads={t}: the median head/base ratio lies below "
                         f"{bound:.3f} (97.5% bound), under {THRESHOLD:.2f}")
    runs = {}
    for doc in heads:
        for k, v in gate["points"](doc).items():
            runs.setdefault(k, []).append(v)
    med = {k: statistics.median(v) for k, v in runs.items()}
    fails += gate["shape"](med, heads[-1])
    for msg in fails:
        print(f"FAIL: {msg}", file=sys.stderr)
    print(f"speedgate {name}: {'FAIL' if fails else 'OK'}")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
