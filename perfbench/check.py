"""Output checker: decides whether one benchmark pass produced correct artifacts.

A pass fails on a non-zero exit code, on any false entry in a report's
``checks``, or on a reference output outside the repository's own pinned
tolerances:

- ``tip-sweep``: ``frontier_sigma`` is exactly 2.5 over 30 rows;
- ``reprofile``: ``hat_profile.csv`` has 201 rows (header plus the
  200-point grid) and ``round_trip_max_error`` is at most 1e-9;
- extend workloads: each norm ratio lies within its own
  ``refinement_delta`` (relative) of the value pinned in
  ``reference.json``, which was recorded at the commit that defined the
  benchmark.

The SHA-256 of every artifact is returned for the record; digests are
reported, never gated, so an intended numeric change is not a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROUND_TRIP_TOL = 1e-9
HAT_ROWS = 201
FRONTIER_SIGMA = 2.5
SWEEP_ROWS = 30


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def digests(out_dir: str) -> dict:
    """{artifact file name: SHA-256 hex digest} for every file in out_dir."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _read_json(out_dir: str, name: str, problems: list) -> dict:
    try:
        with open(os.path.join(out_dir, name)) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        problems.append(f"{name}: unreadable ({err})")
        return {}


def _ratio_key(row: dict) -> str:
    return f"{row['function']},p={row['p']},q={row['q']}"


def check_pass(workload: str, out_dir: str, exit_codes: list,
               reports: tuple, reference: dict) -> list:
    """Problems found in one pass's artifacts; an empty list means it passed."""
    problems = [f"exit code {code}" for code in exit_codes if code != 0]
    parsed = {}
    for name in reports:
        report = _read_json(out_dir, name, problems)
        parsed[name] = report
        failed = sorted(k for k, ok in report.get("checks", {}).items() if ok is not True)
        if not report.get("checks"):
            problems.append(f"{name}: no checks")
        problems += [f"{name}: check {k} is false" for k in failed]

    if workload == "tip-sweep":
        report = parsed["admissibility_report.json"]
        if report.get("frontier_sigma") != FRONTIER_SIGMA:
            problems.append(f"frontier_sigma {report.get('frontier_sigma')!r} != {FRONTIER_SIGMA}")
        if report.get("rows") != SWEEP_ROWS:
            problems.append(f"sweep rows {report.get('rows')!r} != {SWEEP_ROWS}")
    elif workload == "reprofile":
        try:
            with open(os.path.join(out_dir, "hat_profile.csv"), newline="") as fh:
                rows = sum(1 for _ in csv.reader(fh))
        except OSError as err:
            rows = f"unreadable ({err})"
        if rows != HAT_ROWS:
            problems.append(f"hat_profile.csv rows {rows} != {HAT_ROWS}")
        err = parsed["transform_report.json"].get("round_trip_max_error")
        if not (isinstance(err, float) and err <= ROUND_TRIP_TOL):
            problems.append(f"round_trip_max_error {err!r} above {ROUND_TRIP_TOL}")
    else:
        pinned = reference["ratios"][workload]
        rows = parsed["extend_report.json"].get("norm_reports", [])
        seen = {_ratio_key(row): row for row in rows}
        if sorted(seen) != sorted(pinned):
            problems.append(f"norm reports {sorted(seen)} != pinned {sorted(pinned)}")
        for key, ref in pinned.items():
            row = seen.get(key)
            if row is None:
                continue
            ratio, delta = row["ratio"], row["refinement_delta"]
            if not (isinstance(ratio, float) and isinstance(delta, float)
                    and abs(ratio - ref) <= delta * abs(ref)):
                problems.append(f"ratio[{key}] = {ratio!r} not within refinement "
                                f"delta {delta!r} of pinned {ref!r}")
    return problems
