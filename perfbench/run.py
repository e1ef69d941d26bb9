#!/usr/bin/env python3
"""Repo benchmark: build the kvbench program against the pto library and run
one workload.

    python3 perfbench/run.py --workload kv-skip-zipf --seed 42 --seconds 45 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and compiler temporaries to a directory inside it, so nothing
is written outside the checkout. --trace 1 also writes a Chrome-trace JSON to
<build>/traces/. The last line of standard output is the result JSON; its
metric names and units are checked against BENCHMARK.json. The exit status is
nonzero, and no result line is printed, when the build fails or the result
does not match BENCHMARK.json; a failed output check exits nonzero with
"correct": false.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir: Path) -> Path:
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", str(bdir), "--target", "kvbench",
                 "-j", jobs]):
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    return bdir / "kvbench"


def check_result(line: str, trace: int) -> str:
    """Returns an error message, or "" when the result line is well formed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(res)}"
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"extra {extra}, unit mismatch {units}"
    return ""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    cmd = [str(exe), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = bdir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{a.workload}.seed{a.seed}.trace.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 124
    lines = done.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if done.returncode == 2 or not lines[-1].startswith("{"):
        sys.stderr.write(f"perfbench: kvbench exited {done.returncode}\n")
        return done.returncode or 1
    err = check_result(lines[-1], a.trace)
    if err:
        sys.stderr.write(f"perfbench: {err}\n")
        return 3
    print(lines[-1], flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
