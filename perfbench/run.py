"""cuspext benchmark: one workload, one seed, one measured run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload extend-direct --seed 1 --seconds 20 --trace 0

One Python process calls ``cuspext.cli.main`` in-process, one pass at a
time (a closed loop with one caller).  A pass runs every command of the
workload once; its artifacts are checked after each pass, outside the
timed region.  With ``--trace 0`` the run reports the end-to-end metrics:

- ``wall_s``: median seconds per pass, after the process's first pass;
- ``setup_s``: median, over fresh interpreters, of the time until the
  workload's commands are ready to dispatch (import plus config
  validation);
- ``peak_rss_mb``: peak resident set size of a fresh process running
  one pass.

With ``--trace 1`` it alternates untraced and traced passes and reports
per-layer metrics from ``tracer.Tracer``; the spans go to a file under
``perfbench/_runs``.  The last line of standard output is the result
object; lines before it repeat the metrics for people, with the failed
pass share ``fail_frac`` and the artifact digests.  The program is
imported from ``src/`` next to this directory, never from an installed
copy, and BLAS/OpenMP thread variables are pinned to 1 for this process
and its children.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 8      # setup-only fresh interpreters per run, plus the memory probe
MIN_PASSES = 3
PROBE_TIMEOUT_S = 170

# name -> (config files run in order, report files the pass must write)
WORKLOADS = {
    "extend-direct": (("extend-direct.json",), ("extend_report.json",)),
    "extend-straightened": (("extend-straightened.json",), ("extend_report.json",)),
    "tip-sweep": (("tip-sweep.json",), ("admissibility_report.json",)),
    "reprofile": (("reprofile-lipschitzify.json", "reprofile-transform.json"),
                  ("lipschitzify_report.json", "transform_report.json")),
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


class Passes:
    """Runs passes of one workload and checks each pass's artifacts."""

    def __init__(self, workload: str, seed: int, run_dir: str):
        from check import load_reference

        self.workload = workload
        self.out_dir = os.path.join(run_dir, "out")
        self.reference = load_reference()
        config_names, self.reports = WORKLOADS[workload]
        self.configs = []
        for name in config_names:
            with open(os.path.join(HERE, "workloads", name)) as fh:
                raw = json.load(fh)
            raw["seed"] = seed  # the only way the seed reaches the program
            path = os.path.join(run_dir, name)
            with open(path, "w") as fh:
                json.dump(raw, fh)
            self.configs.append((path, raw["command"]))
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.digests = None

    def reset_out(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)

    def run(self, tracer=None) -> float:
        """One pass in this process; returns its wall time in seconds."""
        from cuspext import cli

        self.reset_out()
        codes = []
        start = time.perf_counter()
        for path, command in self.configs:
            argv = ["--config", path, "--out", self.out_dir]
            try:
                if tracer is None:
                    codes.append(cli.main(argv))
                else:
                    with tracer.span(f"cli.{command}"):
                        codes.append(cli.main(argv))
            except Exception:  # a traceback is a failed pass, not a lost run
                traceback.print_exc(file=sys.stderr)
                codes.append("exception")
        elapsed = time.perf_counter() - start
        self.record(codes)
        return elapsed

    def record(self, exit_codes: list) -> None:
        """Check the artifacts of the pass that just ended."""
        from check import check_pass, digests

        self.attempted += 1
        problems = check_pass(self.workload, self.out_dir, exit_codes,
                              self.reports, self.reference)
        found = digests(self.out_dir)
        if self.digests is None:
            self.digests = found
        elif found != self.digests:
            problems.append("artifacts differ from the first pass of this run")
        if problems:
            self.failed += 1
            self.problems.append(problems)
            print(f"pass {self.attempted} failed: {problems}", file=sys.stderr)

    def probe(self, with_pass: bool) -> tuple[float, dict]:
        """Start a fresh interpreter; returns (setup seconds, probe output)."""
        cmd = [sys.executable, os.path.join(HERE, "probe.py"), "--src", SRC]
        for path, _ in self.configs:
            cmd += ["--config", path]
        if with_pass:
            self.reset_out()
            cmd += ["--out", self.out_dir]
        start = time.clock_gettime(time.CLOCK_MONOTONIC)  # the clock probe.py reads
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"probe timed out after {PROBE_TIMEOUT_S}s") from err
        if proc.returncode != 0:
            raise BenchError(f"probe exited {proc.returncode}: {proc.stderr.strip()}")
        sys.stderr.write(proc.stderr)  # tracebacks of commands that raised
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        _require_source(info["cuspext"])
        if with_pass:
            self.record(info["exit_codes"])
        return info["ready"] - start, info


def _require_source(path: str) -> None:
    if not os.path.abspath(path).startswith(os.path.join(SRC, "cuspext") + os.sep):
        raise BenchError(f"cuspext imported from {path}, not from {SRC}")


def _keep_going(times: list, seconds: float, minimum: int) -> bool:
    """True while fewer than ``minimum`` passes ran or another one fits."""
    return len(times) < minimum or sum(times) + statistics.median(times) <= seconds


def _tail(times: list) -> str:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(times)
    for level in (99, 95, 90, 75, 50):
        if n * (100 - level) / 100 >= 10:
            cut = statistics.quantiles(times, n=100, method="inclusive")[level - 1]
            return f"p{level} {cut:.4f} s"
    return "no percentile has ten samples beyond it"


def measure_end_to_end(passes: Passes, seconds: float) -> tuple[dict, dict]:
    setup, info = passes.probe(with_pass=True)
    setups = [setup]
    passes.run()  # first pass of this process: imports and caches warm up
    times: list = []
    while _keep_going(times, seconds, MIN_PASSES):
        # spread the set-up probes over the run, so that one slow or fast
        # stretch of a shared machine does not set their median
        while len(setups) - 1 < SETUP_PROBES * sum(times) / seconds:
            setups.append(passes.probe(with_pass=False)[0])
        times.append(passes.run())
    while len(setups) - 1 < SETUP_PROBES:
        setups.append(passes.probe(with_pass=False)[0])
    metrics = {
        "wall_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (info["maxrss_kb"] / 1024.0, "MB"),
    }
    detail = {"pass_s": times, "setup_s": setups, "tail": _tail(times)}
    return metrics, detail


def measure_layers(passes: Passes, seconds: float, spans_path: str) -> tuple[dict, dict]:
    from tracer import Tracer

    tracer = Tracer()
    passes.run()  # untraced first pass: its digests are the reference
    plain: list = []
    traced: list = []
    while _keep_going(plain + traced, seconds, 2 * MIN_PASSES):
        plain.append(passes.run())
        tracer.pass_id = len(traced)
        tracer.install()
        try:
            traced.append(passes.run(tracer))
        finally:
            tracer.uninstall()
    tracer.dump(spans_path)
    traced_s = statistics.median(traced)
    plain_s = statistics.median(plain)
    metrics = {
        "traced_pass_s": (traced_s, "s"),
        "untraced_pass_s": (plain_s, "s"),
        "trace_overhead_frac": ((traced_s - plain_s) / plain_s, "frac"),
    }
    units = _layer_units()
    layers = tracer.layer_metrics(len(traced))
    layers["cli.bytes_written"] = sum(os.path.getsize(os.path.join(passes.out_dir, name))
                                      for name in os.listdir(passes.out_dir))
    if set(metrics) | set(layers) != set(units):
        raise BenchError(f"per-layer metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ (set(metrics) | set(layers)))}")
    for name, value in layers.items():
        metrics[name] = (value, units[name])
    return metrics, {"pass_s": plain, "traced_pass_s": traced, "spans": spans_path}


def _layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def environment(inherited: dict) -> dict:
    import numpy as np

    def git(*cmd):
        try:
            proc = subprocess.run(["git", "-C", ROOT, *cmd], capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = dirty = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        sha = git("rev-parse", "HEAD")
        status = git("status", "--porcelain")
        dirty = None if status is None else bool(status)
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "platform": platform.platform(),
        "thread_vars_inherited": inherited,
        "thread_vars_set": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "cuspext", "__init__.py")):
        print(f"error: no cuspext sources under {SRC}", file=sys.stderr)
        return 2
    inherited = {v: os.environ.get(v) for v in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads; children inherit it
    sys.path.insert(0, SRC)
    import cuspext

    os.makedirs(RUNS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = tempfile.mkdtemp(prefix=f"{tag}-", dir=RUNS)
    try:
        _require_source(cuspext.__file__)
        passes = Passes(args.workload, args.seed, run_dir)
        if args.trace:
            spans_path = os.path.join(RUNS, f"{tag}-spans.json")
            metrics, detail = measure_layers(passes, args.seconds, spans_path)
        else:
            metrics, detail = measure_end_to_end(passes, args.seconds)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(inherited),
              "digests": passes.digests, "problems": passes.problems,
              "detail": detail, "result": result}
    with open(os.path.join(RUNS, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes timed {len(detail['pass_s'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':45s} {passes.failed / passes.attempted:14.6g} frac "
          f"({passes.failed} of {passes.attempted} passes failed)")
    if "tail" in detail:
        print(f"  wall_s tail: {detail['tail']} ({len(detail['pass_s'])} samples)")
    for name, digest in sorted((passes.digests or {}).items()):
        print(f"  sha256 {name} {digest}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
