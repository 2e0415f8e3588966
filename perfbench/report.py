"""Run every workload and print every metric by name and unit.

Usage (from the repository root)::

    python3 perfbench/report.py [--seed 1] [--trace]

Each workload runs in its own ``run.py`` process with ``--trace 0``; the
table lists ``setup_s``, ``wall_s``, ``peak_rss_mb`` and ``fail_frac``
(failed passes over passes attempted).  ``--trace`` adds a traced run per
workload and prints its per-layer metrics.  Exits non-zero when a run
fails or any pass failed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    all_ok = True
    print(f"{'workload':22s} {'metric':45s} {'value':>14s} unit")
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            result = run_one(workload, args.seed, spec["run_seconds"], trace)
            all_ok &= result["correct"]
            for name, m in result["metrics"].items():
                print(f"{workload:22s} {name:45s} {m['value']:14.6g} {m['unit']}")
            fail_frac = result["failed"] / result["attempted"]
            print(f"{workload:22s} {'fail_frac':45s} {fail_frac:14.6g} frac "
                  f"({result['failed']} of {result['attempted']} passes, trace {trace})")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
