"""Batch command-line front end: construct, verify, and report.

Four commands, each driven by a JSON config and writing deterministic
artifacts (no timestamps; identical config + seed gives byte-identical
output):

  lipschitzify        re-profile a cusp and check the transfer properties
  transform-verify    round-trip / seam / image / distortion checks
  extend-verify       extension-norm reports plus operator checks
  admissibility-sweep frontier table over power-cusp exponents

Exit codes: 0 all checks pass, 2 check failure, 3 configuration error
(a run too large for memory included), 4 numeric error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, admissibility, lipschitzify, quadrature, transform, verify
from .errors import ConfigError, ConvergenceError, CuspExtError, QuadratureError, unknown_key
from .extension import extend
from .fields import LIBRARY, make_field
from .geometry import DomainSpec, normalize
from .lipschitzify import hat_profile
from .profiles import PROFILE_KEYS, load_profile_csv, make_profile, save_profile_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

COMMANDS = ("lipschitzify", "transform-verify", "extend-verify", "admissibility-sweep")

# each sweep row runs two dyadic tail checks (tens of milliseconds), so
# 10 000 rows already take minutes; larger grids are config mistakes
SWEEP_MAX_ROWS = 10_000
# transform_points.csv: min(round_trip_samples, DUMP_POINTS) box points of its own, drawn at
# the run's seed, and their images; past the cap only their t column is the round trip's
DUMP_POINTS = 10_000


@dataclass
class RunConfig:
    command: str
    profile: object
    n: int
    seed: int
    out_dir: str
    options: dict = field(default_factory=dict)  # the command's section, typed
    echo: dict = field(default_factory=dict)
    dump_points: bool = False
    dump_slices: bool = False


# -- the config tables -------------------------------------------------------
# Each table maps a key to (check, default); the default ... marks a required
# key and None one left out when absent.  A check takes the value and its
# dotted name and returns the typed value or raises ConfigError naming the
# field (the check None takes the value as it is); defaults pass the same check.


def _is_number(value) -> bool:
    """A finite JSON number in the float range; true and false do not count."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _need(test, what: str):
    def check(value, name):
        if not test(value):
            raise ConfigError(f"{name}: need {what}, got {value!r}")
        return value
    return check


def _table(table: dict, make=dict):
    """A check that reads an object against ``table`` and collects every error.

    A key the table does not list is an error; ``make`` builds the typed value.
    """
    def check(given, name):
        if not isinstance(given, dict):
            raise ConfigError(f"{name}: need an object, got {given!r}")
        prefix = f"{name}." if name else ""
        errors = [unknown_key(prefix + key, key, table) for key in given if key not in table]
        typed = {}
        for key, (test, default) in table.items():
            try:
                if key in given:
                    value = given[key]
                elif default is ...:
                    raise ConfigError(f"{prefix}{key}: required")
                elif default is None:
                    continue
                else:
                    value = default
                typed[key] = test(value, prefix + key) if test else value
            except ConfigError as err:
                errors.append(str(err))
        if errors:
            raise ConfigError("; ".join(errors))
        try:
            return make(**typed)
        except ValueError as err:
            raise ConfigError(f"{name}.{err}") from None
    return check


COUNT = _need(lambda v: type(v) is int and v >= 1, "an integer >= 1")
NUMBER = _need(_is_number, "a finite number")


def _build_profile(given, name):
    """The profile check; ``profiles.PROFILE_KEYS`` lists the keys of every kind but csv."""
    kind = given.get("kind") if isinstance(given, dict) else None
    if not (isinstance(kind, str) and (kind == "csv" or kind in PROFILE_KEYS)):
        raise ConfigError(f"{name}: need an object whose kind is one of "
                          f"{[*PROFILE_KEYS, 'csv']}, got {given!r}")
    # the analytic kinds take plain numbers, whose range the profile checks
    number = NUMBER if kind in ("power", "linear") else None
    keys = ({"path": (_need(lambda v: isinstance(v, str) and v != "", "a file path"), ...)}
            if kind == "csv" else {key: (number, None) for key in PROFILE_KEYS[kind]})
    params = _table({"kind": (None, ...), **keys})(given, name)
    try:
        return load_profile_csv(params["path"]) if kind == "csv" else make_profile(**params)
    except OSError as err:
        raise ConfigError(f"{name}.path: cannot read {params['path']!r}: "
                          f"{err.strerror or err}") from None
    except (CuspExtError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{name}: {err}") from None


_TOP = {
    "command": (None, ...),
    "n": (_need(lambda v: type(v) is int and v >= 2, "an integer >= 2"), 3),
    "seed": (_need(lambda v: type(v) is int and v >= 0, "a nonnegative integer"), 0),
    "profile": (_build_profile, ...),  # not read by the sweep, which runs power cusps t^s
}

# command -> (the section it reads, that section's table)
SECTIONS = {
    "lipschitzify": ("lipschitzify", {
        "grid_count": (COUNT, 200), "pair_count": (COUNT, 10000),
        "grid_start": (_need(lambda v: _is_number(v) and 0.0 < v < 1.0, "0 < start < 1"), 1e-6),
    }),
    "transform-verify": ("transform", {
        "round_trip_samples": (COUNT, 100000), "image_samples": (COUNT, 10000),
        "distortion_pairs": (COUNT, 100000), "seam_samples": (COUNT, 200),
    }),
    "extend-verify": ("extend", {
        "pq": (_need(lambda v: isinstance(v, list) and v != [] and all(  # numbers: see below
            isinstance(e, list) and len(e) == 2 for e in v), "a nonempty list of [p, q] pairs"),
            [[2.0, 1.0]]),
        "functions": (_need(lambda v: isinstance(v, list) and v != [] and all(
            isinstance(f, str) and f in LIBRARY for f in v),
            f"a nonempty list of names from {sorted(LIBRARY)}"), sorted(LIBRARY)),
        "end_cap_map": (_need(lambda v: v == "mirror",
                              "'mirror' (the shift variants were removed)"), "mirror"),
        "trace_samples": (COUNT, 10000), "decay_rays": (COUNT, 1000),
        # the keyword parameters of fields.tip_power_field, the one field that takes any,
        # typed as {"tip-power": params}; their ranges are checked here, before the
        # command builds the field
        "field_params": (_table({
            "gamma": (_need(lambda v: _is_number(v) and v > 0.0, "a finite number > 0"), None),
            "delta_cap": (_need(lambda v: _is_number(v) and 0.0 < v < 1.0, "0 < delta_cap < 1"),
                          None)}, make=lambda **params: {"tip-power": params}), {}),
        # the keys are the scheme's fields, and the scheme checks its own values
        "quadrature": (_table({f.name: (None, f.default)
                               for f in dataclasses.fields(quadrature.QuadratureScheme)},
                              make=quadrature.QuadratureScheme), {}),
    }),
    "admissibility-sweep": ("sweep", {
        "p": (NUMBER, ...), "q": (NUMBER, ...),
        "s_start": (NUMBER, 1.1), "s_stop": (NUMBER, 4.0), "s_step": (NUMBER, 0.1),
    }),
}


def _cross_field_errors(command: str, top: dict) -> list:
    """The rules that tie keys together, run once every key is typed."""
    if command == "extend-verify":
        return [f"extend.pq[{i}]: need finite numbers with 1 <= q <= p, got {[p, q]}"
                for i, (p, q) in enumerate(top["extend"]["pq"])
                if not (_is_number(p) and _is_number(q) and 1.0 <= q <= p)]
    if command != "admissibility-sweep":
        return []
    opts, errors = top["sweep"], []
    p, q, start, stop, step = (opts[k] for k in ("p", "q", "s_start", "s_stop", "s_step"))
    if top["n"] < 3:
        errors.append(f"n: admissibility-sweep needs n >= 3, got {top['n']}")
    if not 1.0 <= q <= p:
        errors.append(f"sweep: need 1 <= q <= p, got p={p}, q={q}")
    if not (start > 1.0 and stop > start and step > 0.0):
        errors.append(f"sweep: need 1 < s_start < s_stop and s_step > 0, "
                      f"got {start}, {stop}, {step}")
    else:
        # counted before any array exists and kept for the command; min() keeps an
        # overflow out of int()
        opts["rows"] = int(round(min((stop - start) / step, SWEEP_MAX_ROWS))) + 1
        if opts["rows"] > SWEEP_MAX_ROWS:
            errors.append(f"sweep.s_step: {step} gives more than {SWEEP_MAX_ROWS} rows "
                          f"over [{start}, {stop}]")
    return errors


def validate(args, raw: dict) -> dict:
    """The config typed, checked and with defaults filled in; one ConfigError lists all faults."""
    overrides = {"command": args.command, "seed": args.seed}
    given = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    command = given.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command: must be one of {COMMANDS}, got {command!r}")
    section, table = SECTIONS[command]
    top = {**_TOP, section: (_table(table), {})}
    if command == "admissibility-sweep":
        del top["profile"]
    typed = _table(top)(given, "")
    errors = _cross_field_errors(command, typed)
    if errors:
        raise ConfigError("; ".join(errors))
    return typed


def build_run_config(args, raw: dict) -> RunConfig:
    top = validate(args, raw)
    profile = top.pop("profile", None)
    echo = {k: top[k] for k in ("command", "n", "seed")}
    echo.update(profile=None if profile is None else raw["profile"], version=__version__)
    return RunConfig(command=top["command"], profile=profile, n=top["n"], seed=int(top["seed"]),
                     out_dir=args.out, options=top[SECTIONS[top["command"]][0]], echo=echo)


def _write_csv(path: str, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _write_report(cfg: RunConfig, name: str, report: dict, checks: dict) -> int:
    """Write ``report`` with every check as its verdict; the run's exit code.

    A check is a record with ``ok`` or a tuple of them, passing when each does.
    """
    report["checks"] = {key: all(c.ok for c in rec) if isinstance(rec, tuple) else rec.ok
                        for key, rec in checks.items()}
    with open(os.path.join(cfg.out_dir, name), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK if all(report["checks"].values()) else EXIT_CHECK_FAILED


def cmd_lipschitzify(cfg: RunConfig) -> int:
    opts = cfg.options
    grid = np.geomspace(opts["grid_start"], 1.0, opts["grid_count"])
    grid[-1] = 1.0  # a one-point grid is [1.0]
    psi, psi1 = cfg.profile, cfg.profile.value_at_1
    save_profile_csv(hat_profile(psi, grid),
                     os.path.join(cfg.out_dir, "hat_profile.csv"))
    hypothesis, mq, checks = lipschitzify.verify_transfer(psi, grid, opts["pair_count"], cfg.seed)
    doubling = checks.get("doubling_transfer_ok")
    report = {
        "config_echo": cfg.echo,
        "grid": {"count": int(grid.size), "start": float(grid[0])},
        "lipschitz_constant": 1.0 + psi1,
        "max_lipschitz_slack": checks["lipschitz_bound_ok"].value,
        "quotient_hypothesis_holds": hypothesis,
        "monotone_quotient": dataclasses.asdict(mq),
        "doubling_transfer": doubling and {"ok": doubling.ok, "bound": doubling.bound,
                                           "max_ratio": doubling.max_ratio},
    }
    return _write_report(cfg, "lipschitzify_report.json", report, checks)


def cmd_transform_verify(cfg: RunConfig) -> int:
    spec, scale = normalize(DomainSpec(cfg.n, cfg.profile))
    seams, distortion, checks = transform.verify_transform(spec, cfg.seed, **cfg.options)
    report = {
        "config_echo": cfg.echo,
        "normalization_scale": scale,
        "round_trip_max_error": checks["round_trip_ok"].value,
        "seam_stretch": {k: {repr(d): v for d, v in per.items()}
                         for k, per in seams.items()},
        "image": dataclasses.asdict(checks["image_ok"]),
        "distortion": dataclasses.asdict(distortion),
    }
    code = _write_report(cfg, "transform_report.json", report, checks)
    if cfg.dump_points:
        pts = transform.sample_box(cfg.n, min(cfg.options["round_trip_samples"], DUMP_POINTS),
                                   np.random.default_rng(cfg.seed))
        header = [f"z{i}" for i in range(cfg.n)] + [f"Oz{i}" for i in range(cfg.n)]
        _write_csv(os.path.join(cfg.out_dir, "transform_points.csv"),
                   [dict(zip(header, map(repr, map(float, row))))
                    for row in np.hstack([pts, transform.forward_map(spec, pts)])])
    return code


def cmd_extend_verify(cfg: RunConfig) -> int:
    opts = cfg.options
    pq, scheme = opts["pq"], opts["quadrature"]
    fields = {name: make_field(name, cfg.n, **opts["field_params"].get(name, {}))
              for name in opts["functions"]}
    # one operator for the norm reports and every check
    ext = extend(cfg.profile, cfg.n)
    norm_reports, seam_worst, checks = verify.verify_extension(
        ext, fields, pq, scheme, opts["trace_samples"], opts["decay_rays"], cfg.seed)
    if cfg.dump_slices:
        # in the frame the extension is built in; one table per q: it does not depend on p
        region = quadrature.region_extension(ext.hat_context.spec)
        for name, u in fields.items():
            tables = {q: quadrature.lp_slice_table(ext.hat_field(u), region, q, scheme, cfg.n)
                      for q in dict.fromkeys(float(q) for _, q in pq)}
            for p, q in pq:
                _write_csv(os.path.join(cfg.out_dir, f"slices_{name}_p{p}_q{q}.csv"),
                           tables[float(q)])
    report = {
        "config_echo": cfg.echo,
        "route": ext.frame,
        "end_cap_map": "mirror",
        "norm_reports": [{"function": name, **rep.to_dict(), "seam_worst": worst}
                         for name, reports, worst in zip(fields, norm_reports, seam_worst)
                         for rep in reports],
        "linearity_max_error": checks["linearity_ok"].value,
    }
    return _write_report(cfg, "extend_report.json", report, checks)


def cmd_admissibility_sweep(cfg: RunConfig) -> int:
    opts = cfg.options
    p, q = opts["p"], opts["q"]
    sigmas = admissibility.sigma_grid(*(opts[k] for k in ("s_start", "s_stop", "s_step", "rows")))
    rows = admissibility.sweep_power_cusp(cfg.n, float(p), float(q), sigmas)
    _write_csv(os.path.join(cfg.out_dir, "admissibility_sweep.csv"), rows)
    report = {
        "config_echo": cfg.echo,
        "p": p, "q": q,
        "frontier_sigma": admissibility.frontier_from_sweep(rows),
        "rows": len(rows),
    }
    # the sweep tabulates and asserts nothing: an empty tuple of records
    return _write_report(cfg, "admissibility_report.json", report, {"sweep_completed": ()})


DISPATCH = {
    "lipschitzify": cmd_lipschitzify,
    "transform-verify": cmd_transform_verify,
    "extend-verify": cmd_extend_verify,
    "admissibility-sweep": cmd_admissibility_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cuspext", description=__doc__)
    parser.add_argument("--command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--dump-points", action="store_true")
    parser.add_argument("--dump-slices", action="store_true")
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"config: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a JSON object")
        cfg = build_run_config(args, raw)
        cfg.dump_points, cfg.dump_slices = args.dump_points, args.dump_slices
        os.makedirs(cfg.out_dir, exist_ok=True)
        return DISPATCH[cfg.command](cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as err:
        print(f"config error: out of memory ({err}); lower n, a count or the resolution",
              file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, QuadratureError, OverflowError, FloatingPointError) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except CuspExtError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
