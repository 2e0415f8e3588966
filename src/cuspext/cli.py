"""Batch command-line front end: construct, verify, and report.

Four commands, each driven by a JSON config and writing deterministic
artifacts (no timestamps; identical config + seed gives byte-identical
output):

  lipschitzify        re-profile a cusp and check the transfer properties
  transform-verify    round-trip / seam / image / distortion checks
  extend-verify       extension-norm reports plus operator checks
  admissibility-sweep frontier table over power-cusp exponents

Exit codes: 0 all checks pass, 2 check failure, 3 configuration error,
4 numeric error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, admissibility, quadrature, transform, verify
from .errors import ConfigError, ConvergenceError, CuspExtError, QuadratureError
from .extension import extend
from .fields import LIBRARY, make_field
from .geometry import DomainSpec, normalize
from .lipschitzify import (
    DEFAULT_TOL,
    hat_profile,
    hat_values,
    quotient_hypothesis_holds,
    verify_doubling_transfer,
    verify_monotone_quotient,
)
from .profiles import load_profile_csv, make_profile, save_profile_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

COMMANDS = ("lipschitzify", "transform-verify", "extend-verify", "admissibility-sweep")

# each sweep row runs two dyadic tail checks (tens of milliseconds), so
# 10 000 rows already take minutes; larger grids are config mistakes
SWEEP_MAX_ROWS = 10_000

# the keyword parameters of fields.tip_power_field, the one field that takes any
TIP_POWER_PARAMS = ("gamma", "delta_cap")


@dataclass
class RunConfig:
    command: str
    profile: object
    n: int
    seed: int
    tolerance: float
    out_dir: str
    options: dict = field(default_factory=dict)
    echo: dict = field(default_factory=dict)
    dump_points: bool = False
    dump_slices: bool = False


def _default_tolerance() -> float:
    raw = os.environ.get("CUSPEXT_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise ConfigError(f"CUSPEXT_TOL: not a number: {raw!r}") from None
    if not tol > 0.0:
        raise ConfigError(f"CUSPEXT_TOL: must be > 0, got {tol}")
    return tol


def _build_profile(cfg: dict):
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("profile: expected an object with a 'kind' field")
    kind = cfg["kind"]
    if kind == "csv":
        path = cfg.get("path")
        if not (isinstance(path, str) and path):
            raise ConfigError("profile.path: required for kind 'csv'")
        try:
            return load_profile_csv(path)
        except OSError as err:
            raise ConfigError(f"profile.path: cannot read {path!r}: "
                              f"{err.strerror or err}") from None
    params = {k: v for k, v in cfg.items() if k != "kind"}
    return make_profile(kind, **params)


def build_run_config(args, raw: dict) -> RunConfig:
    errors = []
    command = args.command or raw.get("command")
    if command not in COMMANDS:
        errors.append(f"command: must be one of {COMMANDS}, got {command!r}")
    n = raw.get("n", 3)
    if not (isinstance(n, int) and n >= 2):
        errors.append(f"n: must be an integer >= 2, got {n!r}")
    seed = args.seed if args.seed is not None else raw.get("seed", 0)
    if not (isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0):
        errors.append(f"seed: must be a nonnegative integer, got {seed!r}")
    tolerance = raw.get("tolerance", _default_tolerance())
    if not (_is_number(tolerance) and tolerance > 0.0):
        errors.append(f"tolerance: must be a finite number > 0, got {tolerance!r}")
    profile = None
    if command != "admissibility-sweep":
        try:
            profile = _build_profile(raw.get("profile", {}))
        except (ConfigError, CuspExtError, KeyError, TypeError) as err:
            errors.append(f"profile: {err}")
    if errors:
        raise ConfigError("; ".join(errors))
    echo = {"command": command, "n": n, "seed": seed, "tolerance": tolerance,
            "profile": raw.get("profile"), "version": __version__}
    return RunConfig(command=command, profile=profile, n=n, seed=int(seed),
                     tolerance=float(tolerance), out_dir=args.out,
                     options=raw, echo=echo)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _section(cfg: RunConfig, name: str) -> dict:
    opts = cfg.options.get(name, {})
    if not isinstance(opts, dict):
        raise ConfigError(f"{name}: expected an object, got {opts!r}")
    return opts


def _is_number(value) -> bool:
    """A finite JSON number; true and false do not count."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _positive_int(opts: dict, section: str, key: str, default: int, errors: list) -> int:
    value = opts.get(key, default)
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= 1):
        errors.append(f"{section}.{key}: need an integer >= 1, got {value!r}")
    return value


def _grid_from(cfg: dict, errors: list) -> np.ndarray | None:
    count = _positive_int(cfg, "lipschitzify", "grid_count", 200, errors)
    spacing = cfg.get("grid_spacing", "log")
    start = cfg.get("grid_start", 1e-6)
    if spacing not in ("log", "linear"):
        errors.append(f"lipschitzify.grid_spacing: log or linear, got {spacing!r}")
    if not (_is_number(start) and 0.0 < start < 1.0):
        errors.append(f"lipschitzify.grid_start: need 0 < start < 1, got {start!r}")
    if errors:
        return None
    if count == 1:
        return np.array([1.0])
    grid = (np.geomspace(start, 1.0, count) if spacing == "log"
            else np.linspace(start, 1.0, count))
    grid[-1] = 1.0
    return grid


def cmd_lipschitzify(cfg: RunConfig) -> int:
    opts = _section(cfg, "lipschitzify")
    errors: list = []
    grid = _grid_from(opts, errors)
    pair_count = _positive_int(opts, "lipschitzify", "pair_count", 10000, errors)
    if errors:
        raise ConfigError("; ".join(errors))
    psi = cfg.profile
    psi1 = psi.value_at_1
    table = hat_profile(psi, grid, cfg.tolerance)
    save_profile_csv(table, os.path.join(cfg.out_dir, "hat_profile.csv"))

    rng = np.random.default_rng(cfg.seed)
    pairs = rng.uniform(1e-9, 1.0, size=(pair_count, 2))
    va = hat_values(psi, pairs[:, 0], cfg.tolerance)
    vb = hat_values(psi, pairs[:, 1], cfg.tolerance)
    slack = np.abs(va - vb) - (1.0 + psi1) * np.abs(pairs[:, 0] - pairs[:, 1])
    lip_ok = bool(np.max(slack) <= 2.0 * cfg.tolerance)

    hypothesis_ok = quotient_hypothesis_holds(psi, grid)
    mq = verify_monotone_quotient(psi, grid, cfg.tolerance)
    doubling = None
    if psi.doubling_constant is not None:
        sub = grid[grid <= 1.0 / (2.0 * (1.0 + psi1))]
        if sub.size:
            dt = verify_doubling_transfer(psi, sub, tol=cfg.tolerance)
            doubling = {"ok": dt.ok, "bound": dt.bound, "max_ratio": dt.max_ratio}

    checks = {"lipschitz_bound_ok": lip_ok}
    if hypothesis_ok:
        checks["monotone_quotient_ok"] = mq.ok
    if doubling is not None:
        checks["doubling_transfer_ok"] = doubling["ok"]
    report = {
        "config_echo": cfg.echo,
        "grid": {"count": int(grid.size), "start": float(grid[0])},
        "lipschitz_constant": 1.0 + psi1,
        "max_lipschitz_slack": float(np.max(slack)),
        "quotient_hypothesis_holds": hypothesis_ok,
        "monotone_quotient": {"ok": mq.ok, "violation": mq.violation},
        "doubling_transfer": doubling,
        "checks": checks,
    }
    _write_json(os.path.join(cfg.out_dir, "lipschitzify_report.json"), report)
    return EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED


def cmd_transform_verify(cfg: RunConfig) -> int:
    opts = _section(cfg, "transform")
    errors: list = []
    n_round = _positive_int(opts, "transform", "round_trip_samples", 100000, errors)
    n_image = _positive_int(opts, "transform", "image_samples", 10000, errors)
    n_pairs = _positive_int(opts, "transform", "distortion_pairs", 100000, errors)
    n_seam = _positive_int(opts, "transform", "seam_samples", 200, errors)
    deltas = opts.get("seam_deltas", (1e-3, 1e-5, 1e-7))
    if not (isinstance(deltas, (list, tuple)) and deltas
            and all(_is_number(d) and d > 0.0 for d in deltas)):
        errors.append(f"transform.seam_deltas: need a nonempty list of numbers > 0, "
                      f"got {deltas!r}")
    if errors:
        raise ConfigError("; ".join(errors))

    spec, scale = normalize(DomainSpec(cfg.n, cfg.profile))
    rng = np.random.default_rng(cfg.seed)
    z = transform.sample_box(cfg.n, n_round, rng)
    round_err = float(np.max(np.abs(
        transform.inverse_map(spec, transform.forward_map(spec, z)) - z)))
    seams = transform.seam_continuity(spec, tuple(deltas), n_seam, cfg.seed)
    stretch = [k for per in seams.values() for k in per.values()]
    seam_ok = max(stretch) <= 100.0 and max(stretch) / max(min(stretch), 1e-300) <= 10.0
    image = transform.verify_image(spec, n_image, cfg.seed, cfg.tolerance)
    distortion = transform.distortion_sample(spec, n_pairs, cfg.seed)
    finite_ok = (0.0 < distortion.min_ratio <= distortion.max_ratio < np.inf
                 and 0.0 < distortion.min_jacobian)

    checks = {"round_trip_ok": round_err <= 1e-9, "seam_continuity_ok": bool(seam_ok),
              "image_ok": image.ok, "distortion_finite_ok": bool(finite_ok)}
    report = {
        "config_echo": cfg.echo,
        "normalization_scale": scale,
        "round_trip_max_error": round_err,
        "seam_stretch": {k: {repr(d): v for d, v in per.items()}
                         for k, per in seams.items()},
        "image": {"ok": image.ok, "forward_failures": image.forward_failures,
                  "inverse_failures": image.inverse_failures,
                  "counterexample": image.counterexample},
        "distortion": distortion.to_dict(),
        "checks": checks,
    }
    _write_json(os.path.join(cfg.out_dir, "transform_report.json"), report)
    if cfg.dump_points:
        pts = transform.sample_box(cfg.n, min(n_round, 10000),
                                   np.random.default_rng(cfg.seed))
        img = transform.forward_map(spec, pts)
        with open(os.path.join(cfg.out_dir, "transform_points.csv"), "w",
                  newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"z{i}" for i in range(cfg.n)]
                            + [f"Oz{i}" for i in range(cfg.n)])
            for a, b in zip(pts, img):
                writer.writerow([repr(float(v)) for v in (*a, *b)])
    return EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED


def _scheme_from(cfg: dict) -> quadrature.QuadratureScheme:
    known = {"t_levels", "t_ratio", "gauss_t", "gauss_r", "angular",
             "mc_samples", "seed"}
    bad = set(cfg) - known
    if bad:
        raise ConfigError(f"extend.quadrature: unknown fields {sorted(bad)}")
    try:
        return quadrature.QuadratureScheme(**cfg)
    except ValueError as err:
        raise ConfigError(f"extend.quadrature.{err}") from None


def cmd_extend_verify(cfg: RunConfig) -> int:
    opts = _section(cfg, "extend")
    pq = opts.get("pq", [[2.0, 1.0]])
    names = opts.get("functions", sorted(LIBRARY))
    errors: list = []
    if not (isinstance(pq, list) and pq and
            all(isinstance(e, list) and len(e) == 2 for e in pq)):
        errors.append("extend.pq: expected a nonempty list of [p, q] pairs")
    else:
        for i, (p, q) in enumerate(pq):
            if not (_is_number(p) and _is_number(q)):
                errors.append(f"extend.pq[{i}]: need finite numbers, got {[p, q]}")
            elif not 1.0 <= q <= p:
                errors.append(f"extend.pq[{i}]: need 1 <= q <= p, got {[p, q]}")
    if not (isinstance(names, list) and names):
        errors.append("extend.functions: expected a nonempty list of names")
    else:
        for name in names:
            if name not in LIBRARY:
                errors.append(f"extend.functions: unknown field {name!r}")
    if opts.get("end_cap_map", "mirror") != "mirror":
        errors.append("extend.end_cap_map: only 'mirror' is accepted; "
                      "the shift variants were removed")
    trace_samples = _positive_int(opts, "extend", "trace_samples", 10000, errors)
    decay_rays = _positive_int(opts, "extend", "decay_rays", 1000, errors)
    field_params = opts.get("field_params", {})
    if not (isinstance(field_params, dict)
            and all(k in TIP_POWER_PARAMS and _is_number(v) for k, v in field_params.items())):
        errors.append(f"extend.field_params: need an object of finite numbers keyed by "
                      f"{' or '.join(TIP_POWER_PARAMS)}, got {field_params!r}")
    if errors:
        raise ConfigError("; ".join(errors))

    scheme = _scheme_from(opts.get("quadrature", {}))
    psi = cfg.profile
    spec = DomainSpec(cfg.n, psi)

    fields = {}
    for name in names:
        params = field_params if name == "tip-power" else {}
        try:
            fields[name] = make_field(name, cfg.n, **params)
        except ValueError as err:
            raise ConfigError(f"extend.field_params: {err}") from None

    reports, checks = [], {}
    for name, u in fields.items():
        # hat_* live in the frame the extension is built in: the
        # straightened one, or the original frame on the direct route
        ext = extend(u, psi, cfg.n, cfg.tolerance)
        ctx, hat_eu = ext.hat_context, ext.hat_field
        tr = verify.trace_check(ext.field, u, spec, trace_samples, cfg.seed)
        decay = verify.boundary_decay_check(ctx, hat_eu, ext.hat_input, rays=decay_rays,
                                            rng_seed=cfg.seed)
        seams = verify.seam_continuity_check(ctx, hat_eu, per_seam=200, rng_seed=cfg.seed)
        cap = verify.seam_modulus_cap(ctx, u, cfg.seed)
        seam_ok, worst_seam = verify.seam_verdict(seams, cap)
        trace_tol = 1e-12 if ext.frame == "direct" else 1e-8
        checks[f"trace_ok[{name}]"] = tr.max_abs_error <= trace_tol
        checks[f"decay_ok[{name}]"] = decay.ok
        checks[f"seam_ok[{name}]"] = seam_ok
        norm_reports = quadrature.extension_ratio(
            u, psi, cfg.n, [(float(p), float(q)) for p, q in pq], scheme, cfg.tolerance)
        for (p, q), rep in zip(pq, norm_reports):
            reports.append({"function": name, **rep.to_dict(),
                            "seam_worst": worst_seam})
            if cfg.dump_slices:
                rows = quadrature.lp_slice_table(hat_eu, quadrature.region_extension(ctx.spec),
                                                 float(q), scheme, cfg.n)
                path = os.path.join(cfg.out_dir,
                                    f"slices_{name}_p{p}_q{q}.csv")
                with open(path, "w", newline="") as fh:
                    writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                    writer.writeheader()
                    writer.writerows(rows)
            in_region = quadrature.in_limit_region(cfg.n, float(p), float(q))
            key = f"ratio_ok[{name},p={p},q={q}]"
            if rep.zero_denominator:
                checks[key] = True  # flagged, nothing to assert
            elif in_region:
                checks[key] = (np.isfinite(rep.ratio)
                               and rep.refinement_delta is not None
                               and rep.refinement_delta < 0.05)
            else:
                checks[key] = bool(np.isfinite(rep.ratio))

    # linearity across the first two requested fields
    rng = np.random.default_rng(cfg.seed)
    pts = transform.sample_box(cfg.n, 2000, rng, t_range=(-0.5, 3.5), radius=0.6)
    flist = list(fields.values())
    u, v = flist[0], flist[-1]
    lin = verify.linearity_check(lambda w: extend(w, psi, cfg.n, cfg.tolerance).field,
                                 u, v, pts)
    checks["linearity_ok"] = lin.max_abs_error <= 1e-12

    report = {
        "config_echo": cfg.echo,
        "route": ext.frame,
        "end_cap_map": "mirror",
        "norm_reports": reports,
        "linearity_max_error": lin.max_abs_error,
        "checks": checks,
    }
    _write_json(os.path.join(cfg.out_dir, "extend_report.json"), report)
    return EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED


def cmd_admissibility_sweep(cfg: RunConfig) -> int:
    opts = _section(cfg, "sweep")
    errors: list = []
    if cfg.n < 3:
        errors.append(f"n: admissibility-sweep needs n >= 3, got {cfg.n}")
    values = {}
    for key, default in (("p", None), ("q", None), ("s_start", 1.1), ("s_stop", 4.0),
                         ("s_step", 0.1)):
        values[key] = opts.get(key, default)
        if not _is_number(values[key]):
            errors.append(f"sweep.{key}: need a finite number, got {values[key]!r}")
    if errors:
        raise ConfigError("; ".join(errors))
    p, q, start, stop, step = values.values()
    if not 1.0 <= q <= p:
        errors.append(f"sweep: need 1 <= q <= p, got p={p}, q={q}")
    if not (start > 1.0 and stop > start and step > 0.0):
        errors.append(f"sweep: need 1 < s_start < s_stop and s_step > 0, "
                      f"got {start}, {stop}, {step}")
    else:
        # counted before any array exists; min() keeps an overflow out of int()
        count = int(round(min((stop - start) / step, SWEEP_MAX_ROWS))) + 1
        if count > SWEEP_MAX_ROWS:
            errors.append(f"sweep.s_step: {step} gives more than {SWEEP_MAX_ROWS} rows "
                          f"over [{start}, {stop}]")
    if errors:
        raise ConfigError("; ".join(errors))

    sigmas = np.round(np.linspace(start, start + step * (count - 1), count), 12)
    sigmas = sigmas[sigmas <= stop + 1e-12]
    rows = admissibility.sweep_power_cusp(cfg.n, float(p), float(q), sigmas)
    with open(os.path.join(cfg.out_dir, "admissibility_sweep.csv"), "w",
              newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    frontier = admissibility.frontier_from_sweep(rows)
    report = {
        "config_echo": cfg.echo,
        "p": p, "q": q,
        "frontier_sigma": frontier,
        "rows": len(rows),
        "checks": {"sweep_completed": True},
    }
    _write_json(os.path.join(cfg.out_dir, "admissibility_report.json"), report)
    return EXIT_OK


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
    except (ConvergenceError, QuadratureError, OverflowError,
            FloatingPointError) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except CuspExtError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
