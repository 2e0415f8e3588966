import argparse
import copy
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspext import cli, extension, geometry, lipschitzify, quadrature, transform, verify
from cuspext.cli import main
from cuspext.fields import make_field
from cuspext.profiles import PowerProfile, StepProfile, load_profile_csv

REPO = Path(__file__).resolve().parents[1]


def run(tmp_path, config, extra=None, name="cfg.json", outdir="out"):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / outdir
    argv = ["--config", str(cfg_path), "--out", str(out)]
    if extra:
        argv.extend(extra)
    return main(argv), out


BASE_LIP = {
    "command": "lipschitzify",
    "profile": {"kind": "power", "exponent": 2.0},
    "n": 3,
    "seed": 1,
    "lipschitzify": {"grid_count": 60, "pair_count": 2000},
}


def test_lipschitzify_command(tmp_path):
    code, out = run(tmp_path, BASE_LIP)
    assert code == 0
    report = json.loads((out / "lipschitzify_report.json").read_text())
    assert report["checks"]["lipschitz_bound_ok"] is True
    assert report["checks"]["monotone_quotient_ok"] is True
    assert report["lipschitz_constant"] == 2.0
    with open(out / "hat_profile.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["breakpoint", "value"]
    assert len(rows) == 61


@pytest.mark.parametrize("profile, want", [
    ({"kind": "power", "exponent": 2.0}, 1),
    ({"kind": "step", "breakpoints": [0.5, 1.0], "values": [0.1, 0.2]}, 0),
], ids=["power", "table"])
def test_lipschitzify_runs_one_hat_solve(tmp_path, monkeypatch, profile, want):
    # the grid, the pairs and the doubling check's points in one solve, where each
    # check solved its own (6 on a power cusp); a table's hat is read off its rows
    solves = []
    real = lipschitzify._solve_bisect
    monkeypatch.setattr(lipschitzify, "_solve_bisect",
                        lambda *args: solves.append(args[1].size) or real(*args))
    cfg = {"command": "lipschitzify", "profile": profile, "n": 3, "seed": 1}
    assert run(tmp_path, cfg)[0] == 0
    assert len(solves) == want


def test_lipschitzify_underflow_is_rejected_before_any_check_divides(tmp_path, capsys):
    # the doubling check divides by the hat values, which underflow to 0 from 1e-200:
    # the run stops at the table's row 0 with no warning and writes no table
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(tmp_path, dict(BASE_LIP, lipschitzify={"grid_start": 1e-200}))
    assert code == 3
    assert capsys.readouterr().err == (
        "config error: lipschitzify.grid_start: hat value 0.0 at t_hat = 1e-200 has "
        "underflowed, need > 0\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (out / "hat_profile.csv").exists()


def test_lipschitzify_grid_down_to_1e_100(tmp_path):
    # every bracket closes, down to t_hat = 1e-100: the tip row is psi(t) of the
    # boundary pair (mpmath: 2.134397008551464e-270), not a zero-extension guess
    cfg = dict(BASE_LIP, profile={"kind": "power", "exponent": 2.7, "coeff": 0.6},
               lipschitzify={"grid_start": 1e-100, "grid_count": 60, "pair_count": 2000})
    code, out = run(tmp_path, cfg)
    report = json.loads((out / "lipschitzify_report.json").read_text())
    assert code == 0, report["checks"]
    assert report["checks"]["monotone_quotient_ok"] is True
    table = load_profile_csv(out / "hat_profile.csv")
    assert table.breaks[0] == 1e-100
    assert table.values[0] == pytest.approx(2.134397008551464e-270, rel=1e-15)


def test_lipschitzify_linear_table_is_identity(tmp_path):
    cfg = dict(BASE_LIP, profile={"kind": "linear", "slope": 0.25})
    code, out = run(tmp_path, cfg)
    assert code == 0
    with open(out / "hat_profile.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    for b, v in rows:
        assert float(v) == 0.25 * float(b)


def test_determinism_byte_identical(tmp_path):
    _, out1 = run(tmp_path, BASE_LIP, outdir="out1")
    _, out2 = run(tmp_path, BASE_LIP, outdir="out2")
    assert (out1 / "lipschitzify_report.json").read_bytes() == \
        (out2 / "lipschitzify_report.json").read_bytes()
    assert (out1 / "hat_profile.csv").read_bytes() == \
        (out2 / "hat_profile.csv").read_bytes()


def test_transform_verify_command(tmp_path):
    cfg = {
        "command": "transform-verify",
        "profile": {"kind": "power", "exponent": 2.0, "coeff": 0.25},
        "seed": 2,
        "transform": {"round_trip_samples": 5000, "image_samples": 1500,
                      "distortion_pairs": 4000, "seam_samples": 50},
    }
    code, out = run(tmp_path, cfg, extra=["--dump-points"])
    assert code == 0
    report = json.loads((out / "transform_report.json").read_text())
    assert all(report["checks"].values())
    assert report["round_trip_max_error"] <= 1e-9
    assert (out / "transform_points.csv").exists()


@pytest.mark.parametrize("pairs, want", [(600, 3), (500, 4)], ids=["equal", "unequal"])
def test_transform_verify_box_draws(tmp_path, monkeypatch, pairs, want):
    # the round trip, then the distortion's b and probes: at equal counts the round
    # trip's sample is the pairs' a, otherwise a is drawn afresh
    draws = []
    real = transform.sample_box

    def counted(n, count, rng, **kwargs):
        draws.append(count)
        return real(n, count, rng, **kwargs)

    monkeypatch.setattr(transform, "sample_box", counted)
    cfg = {"command": "transform-verify", "profile": {"kind": "power", "exponent": 2.0},
           "seed": 1, "transform": {"round_trip_samples": 600, "image_samples": 300,
                                    "distortion_pairs": pairs, "seam_samples": 20}}
    assert run(tmp_path, cfg)[0] == 0
    assert draws == [600] + [pairs] * (want - 1)


@pytest.mark.parametrize("samples", [2_000, 12_000])
def test_transform_points_csv_holds_its_own_box_sample(tmp_path, samples):
    # min(round_trip_samples, DUMP_POINTS) box points drawn at the run's seed and
    # their images; past the cap they share only the t column of the round-trip sample
    cfg = {
        "command": "transform-verify",
        "profile": {"kind": "power", "exponent": 2.0, "coeff": 0.25},
        "seed": 2,
        "transform": {"round_trip_samples": samples, "image_samples": 500,
                      "distortion_pairs": 500, "seam_samples": 20},
    }
    code, out = run(tmp_path, cfg, extra=["--dump-points"])
    assert code == 0
    with open(out / "transform_points.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["z0", "z1", "z2", "Oz0", "Oz1", "Oz2"]
    k = min(samples, cli.DUMP_POINTS)
    spec, _ = geometry.normalize(geometry.DomainSpec(3, PowerProfile(2.0, 0.25)))
    pts = transform.sample_box(3, k, np.random.default_rng(2))
    assert rows[1:] == [[repr(float(v)) for v in row]
                        for row in np.hstack([pts, transform.forward_map(spec, pts)])]
    round_trip = transform.sample_box(3, samples, np.random.default_rng(2))[:k]
    assert np.array_equal(pts[:, 0], round_trip[:, 0])
    assert np.array_equal(pts, round_trip) == (samples <= cli.DUMP_POINTS)


def test_extend_verify_command(tmp_path):
    cfg = {
        "command": "extend-verify",
        "profile": {"kind": "power", "exponent": 2.0, "coeff": 0.25},
        "seed": 3,
        "extend": {
            "pq": [[2.0, 1.0]],
            "functions": ["constant", "axial"],
            "quadrature": {"t_levels": 20, "gauss_t": 3, "gauss_r": 3,
                           "angular": 6},
            "trace_samples": 2000,
            "decay_rays": 90,
        },
    }
    code, out = run(tmp_path, cfg)
    report = json.loads((out / "extend_report.json").read_text())
    assert code == 0, report["checks"]
    assert report["route"] == "direct"
    assert len(report["norm_reports"]) == 2
    for rep in report["norm_reports"]:
        assert rep["ratio"] > 0.0


@pytest.mark.parametrize("functions", [["wave"], ["constant", "axial", "radial-sq", "wave"]],
                         ids=["one-field", "four-fields"])
def test_extend_verify_builds_at_most_two_operators(tmp_path, monkeypatch, functions):
    # the operator depends on the domain alone: one serves the norm reports and
    # every pointwise check, whatever the number of fields (tip-power would
    # need a finer rule than this one to pass its ratio check)
    built = []
    real = extension.extend_general

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(extension, "extend_general", counted)
    cfg = {
        "command": "extend-verify",
        "profile": {"kind": "step", "breakpoints": [0.5, 1.0], "values": [0.1, 0.2]},
        "seed": 3,
        "extend": {
            "pq": [[2.0, 1.0]],
            "functions": functions,
            "quadrature": {"t_levels": 12, "gauss_t": 3, "gauss_r": 3, "angular": 6},
            "trace_samples": 500,
            "decay_rays": 60,
        },
    }
    code, out = run(tmp_path, cfg)
    report = json.loads((out / "extend_report.json").read_text())
    assert code == 0, report["checks"]
    assert report["route"] == "straightened"
    assert len(report["norm_reports"]) == len(functions)
    assert len(built) == 1


def test_extend_verify_geometry_work_does_not_grow_with_fields(tmp_path, monkeypatch):
    # the norm reports and every check pull their points back once per run:
    # four fields classify and invert the same points as one field does
    counts = Counter()
    real_classify, real_branches = geometry.classify_extension_region, transform._inverse_branches

    def classify(spec, z, R=None):
        counts["classify_extension_region calls"] += 1
        counts["classify_extension_region points"] += int(np.prod(np.shape(z)[:-1]))
        return real_classify(spec, z, R)

    def branches(spec, w):
        counts["_inverse_branches calls"] += 1
        return real_branches(spec, w)

    monkeypatch.setattr(geometry, "classify_extension_region", classify)
    monkeypatch.setattr(extension, "_inverse_branches", branches)
    monkeypatch.setattr(transform, "_inverse_branches", branches)
    work = []
    for functions in (["wave"], ["constant", "axial", "radial-sq", "wave"]):
        counts.clear()
        cfg = {
            "command": "extend-verify",
            "profile": {"kind": "step", "breakpoints": [0.5, 1.0], "values": [0.1, 0.2]},
            "seed": 3,
            "extend": {
                "pq": [[2.0, 1.0]],
                "functions": functions,
                "quadrature": {"t_levels": 12, "gauss_t": 3, "gauss_r": 3, "angular": 6},
                "trace_samples": 500,
                "decay_rays": 60,
            },
        }
        code, _ = run(tmp_path, cfg, outdir=f"out{len(functions)}")
        assert code == 0
        work.append(dict(counts))
    assert work[0] == work[1]
    assert min(work[0].values()) > 0


def test_extend_verify_seam_cap_reads_the_hat_input(tmp_path, monkeypatch):
    # the seams probe E^(u o T^-1), so the cap comes from u o T^-1, not u
    bounds = []
    real = verify.seam_continuity_check

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        bounds.append([c.bound for checks, _ in out for c in checks])
        return out

    monkeypatch.setattr(verify, "seam_continuity_check", recorded)
    cfg = {
        "command": "extend-verify",
        "profile": {"kind": "step", "breakpoints": [0.5, 1.0], "values": [0.1, 0.2]},
        "seed": 1,
        "extend": {
            "pq": [[2.0, 1.0]],
            "functions": ["wave"],
            "quadrature": {"t_levels": 12, "gauss_t": 3, "gauss_r": 3, "angular": 6},
            "trace_samples": 500,
            "decay_rays": 60,
        },
    }
    code, _ = run(tmp_path, cfg)
    assert code == 0
    ext = extension.extend(StepProfile([0.5, 1.0], [0.1, 0.2]), 3)
    u = make_field("wave", 3)
    [want] = verify.seam_modulus_cap(ext, [u], 1)
    # one bound cap * delta per seam and separation, seven seams
    assert bounds == [[want * delta for _ in range(7) for delta in (1e-3, 1e-5, 1e-7)]]
    # u itself, read at the same straightened points, gives another cap
    assert [want] != verify.seam_modulus_cap(dataclasses.replace(ext, inner=None), [u], 1)


def test_extend_verify_detects_shift_misconfiguration(tmp_path, shift_end_cap):
    shift_end_cap(1.0)
    cfg = {
        "command": "extend-verify",
        "profile": {"kind": "power", "exponent": 2.0, "coeff": 0.25},
        "seed": 3,
        "extend": {
            "pq": [[2.0, 1.0]],
            "functions": ["axial"],
            "quadrature": {"t_levels": 15, "gauss_t": 3, "gauss_r": 3,
                           "angular": 6},
            "trace_samples": 500,
            "decay_rays": 60,
        },
    }
    code, out = run(tmp_path, cfg)
    assert code == 2
    report = json.loads((out / "extend_report.json").read_text())
    assert report["checks"]["seam_ok[axial]"] is False
    assert report["norm_reports"][0]["seam_worst"] == "cap-interface"


SMALL_TRANSFORM = {
    "command": "transform-verify",
    "profile": {"kind": "power", "exponent": 2.0, "coeff": 0.25},
    "seed": 2,
    "transform": {"round_trip_samples": 500, "image_samples": 300,
                  "distortion_pairs": 500, "seam_samples": 20},
}


def test_transform_verify_fails_a_nan_seam_stretch(tmp_path, monkeypatch):
    # Python's max() skips a NaN that is not first; the stretch record must not
    real = transform.seam_continuity

    def nan_disk(*args):
        stretch = real(*args)
        stretch["disk"][1e-5] = float("nan")
        return stretch

    monkeypatch.setattr(transform, "seam_continuity", nan_disk)
    code, out = run(tmp_path, SMALL_TRANSFORM)
    assert code == 2
    checks = json.loads((out / "transform_report.json").read_text())["checks"]
    assert checks.pop("seam_continuity_ok") is False
    assert all(checks.values())


SMALL_EXTEND = {
    "command": "extend-verify",
    "profile": {"kind": "power", "exponent": 2.0, "coeff": 0.25},
    "n": 3,
    "seed": 1,
    "extend": {
        "pq": [[2.0, 1.0], [4.0, 1.9]],
        "functions": ["constant"],
        "quadrature": {"t_levels": 12, "gauss_t": 3, "gauss_r": 3, "angular": 6},
        "trace_samples": 500,
        "decay_rays": 60,
    },
}


def _patch_norm_reports(monkeypatch, **changes):
    """Make extension_ratio report ``changes`` at (p, q) = (2, 1)."""
    real = quadrature.extension_ratio

    def patched(*args, **kwargs):
        return [[dataclasses.replace(rep, **changes) if (rep.p, rep.q) == (2.0, 1.0) else rep
                 for rep in reports] for reports in real(*args, **kwargs)]

    monkeypatch.setattr(quadrature, "extension_ratio", patched)


def test_extend_verify_fails_an_infinite_ratio_in_the_limit_region(tmp_path, monkeypatch):
    # the limit-region rule once returned np.False_, which json.dump cannot write
    _patch_norm_reports(monkeypatch, ratio=float("inf"))
    code, out = run(tmp_path, SMALL_EXTEND)
    assert code == 2
    checks = json.loads((out / "extend_report.json").read_text())["checks"]
    assert checks.pop("ratio_ok[constant,p=2.0,q=1.0]") is False
    assert all(checks.values())


def test_extend_verify_zero_denominator_asserts_nothing(tmp_path, monkeypatch):
    # even a NaN ratio passes: an empty tuple of records
    _patch_norm_reports(monkeypatch, zero_denominator=True, ratio=float("nan"),
                        refinement_delta=None)
    code, out = run(tmp_path, SMALL_EXTEND)
    assert code == 0
    checks = json.loads((out / "extend_report.json").read_text())["checks"]
    assert checks["ratio_ok[constant,p=2.0,q=1.0]"] is True


def test_extend_verify_out_of_region_warns_not_fails(tmp_path):
    cfg = {
        "command": "extend-verify",
        "profile": {"kind": "power", "exponent": 2.0, "coeff": 0.25},
        "seed": 1,
        "extend": {
            "pq": [[1.0, 1.0]],
            "functions": ["constant"],
            "quadrature": {"t_levels": 15, "gauss_t": 3, "gauss_r": 3,
                           "angular": 6},
            "trace_samples": 500,
            "decay_rays": 60,
        },
    }
    code, out = run(tmp_path, cfg)
    assert code == 0
    report = json.loads((out / "extend_report.json").read_text())
    warnings = report["norm_reports"][0]["warnings"]
    assert warnings and "outside" in warnings[0]


def test_extend_verify_dump_slices(tmp_path):
    cfg = {
        "command": "extend-verify",
        "profile": {"kind": "power", "exponent": 2.0, "coeff": 0.25},
        "seed": 1,
        "extend": {
            "pq": [[2.0, 1.0]],
            "functions": ["constant"],
            "quadrature": {"t_levels": 12, "gauss_t": 3, "gauss_r": 3,
                           "angular": 6},
            "trace_samples": 400,
            "decay_rays": 30,
        },
    }
    code, out = run(tmp_path, cfg, extra=["--dump-slices"])
    assert code == 0
    with open(out / "slices_constant_p2.0_q1.0.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and sum(float(r["contribution"]) for r in rows) > 0.0


def test_extend_verify_dumps_one_slice_table_per_field_and_q(tmp_path, monkeypatch):
    # the table depends on q alone: two pairs sharing q = 1 share one table,
    # and each pair still gets its own file
    real, seen = cli.quadrature.lp_slice_table, []
    monkeypatch.setattr(cli.quadrature, "lp_slice_table",
                        lambda u, region, q, *rest: seen.append((u.name, q))
                        or real(u, region, q, *rest))
    cfg = {
        "command": "extend-verify",
        "profile": {"kind": "power", "exponent": 2.0, "coeff": 0.25},
        "seed": 1,
        "extend": {
            "pq": [[2.0, 1.0], [4.0, 1.0], [4.0, 2.0]],
            "functions": ["constant", "wave"],
            "quadrature": {"t_levels": 6, "gauss_t": 2, "gauss_r": 2, "angular": 4},
            "trace_samples": 20,
            "decay_rays": 5,
        },
    }
    run(tmp_path, cfg, extra=["--dump-slices"])
    assert len(set(seen)) == len(seen) == 4  # (field, q) pairs, each once
    assert Counter(q for _, q in seen) == {1.0: 2, 2.0: 2}
    for u in ("constant", "wave"):
        q1 = [(tmp_path / "out" / f"slices_{u}_p{p}_q1.0.csv").read_bytes() for p in (2.0, 4.0)]
        assert q1[0] == q1[1]
        assert (tmp_path / "out" / f"slices_{u}_p4.0_q2.0.csv").read_bytes() != q1[0]


@pytest.mark.parametrize("gamma", [77.0, 200.0])
def test_numeric_error_exit_code(tmp_path, gamma):
    # gamma = 77 overflows |u|^p inside the quadrature; gamma = 200 already
    # overflows at field construction; both are numeric failures
    cfg = {
        "command": "extend-verify",
        "profile": {"kind": "power", "exponent": 2.0, "coeff": 0.25},
        "seed": 1,
        "extend": {
            "pq": [[2.0, 1.0]],
            "functions": ["tip-power"],
            "field_params": {"gamma": gamma},
            "quadrature": {"t_levels": 12, "gauss_t": 3, "gauss_r": 3,
                           "angular": 6},
            "trace_samples": 200,
            "decay_rays": 30,
        },
    }
    code, _ = run(tmp_path, cfg)
    assert code == 4


TINY_EXTEND = {
    "pq": [[2.0, 1.0]],
    "functions": ["constant"],
    "quadrature": {"t_levels": 6, "gauss_t": 2, "gauss_r": 2, "angular": 4},
    "trace_samples": 50,
    "decay_rays": 10,
}


def _tip_table(tip):
    return {"kind": "step", "breakpoints": [0.5, 1.0], "values": [tip, 0.2]}


@pytest.mark.parametrize("profile, code", [
    ({"kind": "power", "exponent": 1000.0, "coeff": 0.25}, 4),
    (_tip_table(1e-300), 0),
    (_tip_table(1e-17), 0),
], ids=["power-1000", "step-1e-300", "step-1e-17"])
def test_seam_cap_of_a_vanishing_tip_exits_numeric_error(tmp_path, capsys, profile, code):
    # psi reads 0.0 at t = 0.05: the seam cap's slope term has no finite
    # value, and no seam check may pass against an infinite cap. A table's
    # tip does not vanish: the hat holds the first row's value on its flat
    # piece, so it reads 1e-300 (or 1e-17) at t = 0.05, the seam cap is
    # finite, the collar keeps its width and every check passes
    cfg = {"command": "extend-verify", "profile": profile, "seed": 3, "extend": TINY_EXTEND}
    assert run(tmp_path, cfg)[0] == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert "numeric error" in err and "psi(0.05) = 0.0" in err
    else:
        checks = json.loads((tmp_path / "out" / "extend_report.json").read_text())["checks"]
        assert err == "" and checks and all(checks.values())


def test_tip_table_doubling_ratio_is_its_rows_ratio(tmp_path):
    # hat values at t and 2t are the rows' 1e-17 and 0.2 exactly, so the ratio is
    # the rows' constant; target - t read 0.0 there, and the ratio NaN
    code, out = run(tmp_path, dict(BASE_LIP, profile=_tip_table(1e-17)))
    transfer = json.loads((out / "lipschitzify_report.json").read_text())["doubling_transfer"]
    assert code == 0 and transfer["ok"]
    assert transfer["max_ratio"] == transfer["bound"] == 0.2 / 1e-17


def test_extend_verify_validation(tmp_path, capsys):
    base = {
        "command": "extend-verify",
        "profile": {"kind": "power", "exponent": 2.0, "coeff": 0.25},
    }
    code, _ = run(tmp_path, dict(base, extend={"functions": []}))
    assert code == 3
    code, _ = run(tmp_path, dict(base, extend={"pq": [[1.0, 2.0]]}), outdir="o2")
    assert code == 3
    capsys.readouterr()
    for i, mode in enumerate(["shift9", "shift1"]):
        code, _ = run(tmp_path, dict(base, extend={"end_cap_map": mode}), outdir=f"o{3 + i}")
        assert code == 3
        err = capsys.readouterr().err
        assert "extend.end_cap_map" in err and "shift variants were removed" in err
    # "mirror" is still accepted: only the empty function list is reported
    code, _ = run(tmp_path, dict(base, extend={"end_cap_map": "mirror", "functions": []}),
                  outdir="o5")
    assert code == 3
    assert "end_cap_map" not in capsys.readouterr().err


@pytest.mark.parametrize("extend, field", [
    ({"pq": [["a", 1]]}, "extend.pq[0]"),
    ({"pq": [[float("inf"), 1]]}, "extend.pq[0]"),
    ({"quadrature": {"gauss_t": 0}}, "extend.quadrature.gauss_t"),
    ({"quadrature": {"angular": 0}}, "extend.quadrature.angular"),
    ({"quadrature": {"t_levels": 1100}}, "extend.quadrature.t_levels"),
    ({"decay_rays": "abc"}, "extend.decay_rays"),
    ({"trace_samples": True}, "extend.trace_samples"),
    ({"functions": ["tip-power"], "field_params": {"gamma": "x"}}, "extend.field_params"),
    ({"functions": ["tip-power"], "field_params": [1]}, "extend.field_params"),
    ({"functions": ["tip-power"], "field_params": {"zzz": 1}}, "extend.field_params"),
    ({"functions": ["tip-power"], "field_params": {"gamma": -1}}, "extend.field_params"),
    ({"quadrature": {"gauss_t": True}}, "extend.quadrature.gauss_t"),
    # the Monte Carlo nodes draw from the constant seed 0: any value is an unknown key
    ({"quadrature": {"seed": 0}}, "extend.quadrature.seed: unknown key"),
    ({"quadrature": {"t_ratio": 0.5}}, "extend.quadrature.t_ratio: unknown key"),
], ids=["pq-string", "pq-inf", "gauss_t-0", "angular-0", "t_levels-underflow",
        "decay_rays-string", "trace_samples-bool", "field_params-string",
        "field_params-list", "field_params-unknown-key", "field_params-gamma-negative",
        "gauss_t-bool", "quadrature-seed-is-a-constant", "t_ratio-is-a-constant"])
def test_extend_malformed_fields_exit_config_error(tmp_path, capsys, extend, field):
    cfg = {"command": "extend-verify",
           "profile": {"kind": "power", "exponent": 2.0, "coeff": 0.25},
           "extend": dict({"functions": ["constant"], "trace_samples": 50,
                           "decay_rays": 30}, **extend)}
    code, out = run(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == 3
    assert field in err
    assert "Traceback" not in err
    assert not out.exists()  # rejected before any work


PW = {"kind": "power", "exponent": 2.0, "coeff": 0.25}
SWEEP = {"command": "admissibility-sweep", "n": 3, "sweep": {"p": 4.0, "q": 2.0}}


def _sweep(**fields):
    return dict(SWEEP, sweep=dict(SWEEP["sweep"], **fields))


@pytest.mark.parametrize("cfg, field", [
    (_sweep(p=float("inf")), "sweep.p"),
    (_sweep(q=float("nan")), "sweep.q"),
    (dict(SWEEP, n=2), "n: admissibility-sweep needs n >= 3"),
    (_sweep(s_start="a"), "sweep.s_start"),
    (_sweep(s_stop=True), "sweep.s_stop"),
    (_sweep(s_step=1e-9), "sweep.s_step"),
    ({"command": "transform-verify", "profile": PW,
      "transform": {"round_trip_samples": "abc"}}, "transform.round_trip_samples"),
    ({"command": "transform-verify", "profile": PW,
      "transform": {"round_trip_samples": 2.5}}, "transform.round_trip_samples"),
    ({"command": "transform-verify", "profile": PW,
      "transform": {"seam_samples": 0}}, "transform.seam_samples"),
    # every seam probe reads the separations geometry.SEAM_DELTAS
    ({"command": "transform-verify", "profile": PW,
      "transform": {"seam_deltas": [1e-3, 1e-5, 1e-7]}}, "transform.seam_deltas: unknown key"),
    ({"command": "lipschitzify", "profile": PW,
      "lipschitzify": {"pair_count": "x"}}, "lipschitzify.pair_count"),
    ({"command": "lipschitzify", "profile": PW,
      "lipschitzify": {"pair_count": 0}}, "lipschitzify.pair_count"),
    ({"command": "lipschitzify", "profile": PW,
      "lipschitzify": {"grid_start": "x"}}, "lipschitzify.grid_start"),
    # the grid is always geometric
    ({"command": "lipschitzify", "profile": PW,
      "lipschitzify": {"grid_spacing": "log"}}, "lipschitzify.grid_spacing: unknown key"),
    ({"command": "lipschitzify", "profile": {"kind": "csv", "path": "no/such/profile.csv"}},
     "profile.path"),
    ({"command": "lipschitzify", "profile": {"kind": "csv", "path": 5}}, "profile.path"),
    ({"command": "lipschitzify", "profile": PW, "lipschitzify": [1]}, "lipschitzify"),
    ({"command": "lipschitzify", "profile": {"kind": "step", "breakpoints": [1.0],
                                             "values": [0.2], "lipschitz_constant": "abc"}},
     "profile.lipschitz_constant: unknown key"),
    # the solver tolerance is the constant lipschitzify.SOLVE_TOL: any value is an unknown key
    ({"command": "lipschitzify", "profile": PW, "tolerance": True}, "tolerance: unknown key"),
    ({"command": "lipschitzify", "profile": PW, "tolerance": float("inf")},
     "tolerance: unknown key"),
    ({"command": "lipschitzify", "profile": PW, "tolerance": 1e-12}, "tolerance: unknown key"),
    ({"command": "lipschitzify", "profile": PW, "seed": True}, "seed"),
    ({"command": "lipschitzify", "profile": {"kind": "linear", "slope": True}},
     "profile.slope"),
    ({"command": "lipschitzify", "profile": {"kind": "power", "exponent": float("inf")}},
     "profile.exponent"),
    ({"command": "lipschitzify", "profile": dict(PW, coeff=float("inf"))}, "profile.coeff"),
    ({"command": "lipschitzify", "profile": dict(PW, exponent=1024.0)}, "profile: exponent:"),
    # a table's route is derived from its type: a declared constant took the
    # direct route across the jump at t = 0.5
    ({"command": "extend-verify", "profile": {"kind": "step", "breakpoints": [0.5, 1.0],
                                              "values": [0.1, 0.2], "lipschitz_constant": 1.2}},
     "profile.lipschitz_constant: unknown key; known keys: kind, breakpoints, values, "
     "doubling_constant"),
    # a declared doubling constant is a claim checked against the rows' own
    ({"command": "lipschitzify", "profile": {"kind": "step", "breakpoints": [0.5, 1.0],
                                             "values": [0.1, 0.2], "doubling_constant": 1.5}},
     "profile: doubling_constant: declared 1.5 is below the rows' constant 2.0"),
], ids=["sweep-p-inf", "sweep-q-nan", "sweep-n-2", "sweep-s_start-string",
        "sweep-s_stop-bool", "sweep-rows-over-limit", "round_trip_samples-string",
        "round_trip_samples-float", "seam_samples-0", "seam_deltas-is-a-constant",
        "pair_count-string", "pair_count-0", "grid_start-string", "grid_spacing-is-log",
        "csv-missing-path",
        "csv-path-not-string", "section-not-object", "step-lipschitz-string",
        "tolerance-bool", "tolerance-inf", "tolerance-default",
        "seed-bool", "linear-slope-bool", "power-exponent-inf", "power-coeff-inf",
        "power-exponent-overflow", "step-lipschitz-declared", "step-doubling-below-rows"])
def test_malformed_fields_exit_config_error(tmp_path, capsys, monkeypatch, cfg, field):
    # the sweep grid is never built: every case must stop at validation
    def no_grid(*args, **kwargs):
        raise AssertionError("sweep grid built before validation")

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    code, _ = run(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == 3
    assert field in err
    assert "Traceback" not in err


class _GridReached(Exception):
    pass


@pytest.mark.parametrize("s_stop, passes", [(1001.4, True), (1001.5, False)],
                         ids=["at-limit", "one-over"])
def test_sweep_row_limit_checked_before_any_array(tmp_path, capsys, monkeypatch,
                                                  s_stop, passes):
    # 1.5 + 0.1 k for k < SWEEP_MAX_ROWS: exactly the limit, then one row more
    assert cli.SWEEP_MAX_ROWS == 10_000

    def reached(*args, **kwargs):
        raise _GridReached

    monkeypatch.setattr(cli.np, "linspace", reached)
    cfg = _sweep(s_start=1.5, s_stop=s_stop, s_step=0.1)
    if passes:
        with pytest.raises(_GridReached):
            run(tmp_path, cfg)
    else:
        code, _ = run(tmp_path, cfg)
        assert code == 3
        assert "sweep.s_step" in capsys.readouterr().err


TWO_STEP_ROWS = {"kind": "step", "breakpoints": [0.5, 1.0], "values": [0.1, 0.2]}


@pytest.mark.parametrize("declared", [None, 2.0, 1e300], ids=["undeclared", "exact", "1e300"])
def test_table_doubling_bound_comes_from_its_rows(tmp_path, declared):
    # a declared value reaches no computation: the bound is max(2, C) of the rows
    profile = TWO_STEP_ROWS if declared is None else dict(TWO_STEP_ROWS,
                                                           doubling_constant=declared)
    code, out = run(tmp_path, dict(BASE_LIP, profile=profile))
    report = json.loads((out / "lipschitzify_report.json").read_text())
    assert code == 0
    assert report["doubling_transfer"]["bound"] == 2.0 and report["doubling_transfer"]["ok"]
    assert report["checks"]["doubling_transfer_ok"] is True


UNDERFLOWING_TABLE = {"kind": "step", "breakpoints": [1e-300, 1.0], "values": [1e-300, 1e300]}
OVERFLOWING_TABLE = {"kind": "step", "breakpoints": [0.5, 1.0], "values": [1.0, 1e308]}
_PSI1_OVERFLOW = ("profile: psi(1) = 1e+308 is too large to normalize: "
                  "the factor 1/(4 psi(1)) underflows to 0.0")


@pytest.mark.parametrize("cfg, code, field", [
    # s_start > 1 passed the range check, but the grid's first row rounds to 1.0
    (_sweep(s_start=1.0000000000004), 3, "sweep.s_start: 1.0000000000004 rounds to 1.0"),
    # 11 rows by count, but rounding such a grid to 12 decimals overflows past 1e296
    (_sweep(s_start=1.1, s_stop=1e300, s_step=1e299), 3, "sweep.s_stop: need s_stop + 1e-12"),
    # the hat of t^2 underflows to 0 at the grid's first point
    (dict(BASE_LIP, lipschitzify={"grid_start": 1e-200}), 3,
     "lipschitzify.grid_start: hat value 0.0 at t_hat = 1e-200 has underflowed"),
    ({"command": "extend-verify", "profile": {"kind": "power", "exponent": 1000.0, "coeff": 0.25},
      "seed": 3, "extend": TINY_EXTEND}, 4, "psi(0.05) = 0.0"),
    # exited 4 with psi(0.05) = 0.0 while the table's hat cancelled to 0.0 at its tip
    ({"command": "extend-verify", "profile": _tip_table(1e-300), "seed": 3,
      "extend": TINY_EXTEND}, 0, None),
    # a valid table whose row 0 underflows under the normalizing factor 1/(4 psi(1));
    # the message named row 0 of the rescaled table, whose value read 0.0
    ({"command": "transform-verify", "profile": UNDERFLOWING_TABLE, "seed": 1}, 3,
     "profile.values: row 0 = 1e-300 underflows to 0.0 under the normalizing factor "
     "1/(4 psi(1)) = 2.5e-301"),
    ({"command": "extend-verify", "profile": UNDERFLOWING_TABLE, "seed": 1,
      "extend": TINY_EXTEND}, 3, "profile.values: row 0 = 1e-300 underflows"),
    # from psi(1) = 4.5e307 up 4 psi(1) overflows and the factor reads 0.0: the messages
    # named the rescaled coeff 0.0, or row 0 = 1.0 of a table that does not underflow
    ({"command": "transform-verify", "profile": {"kind": "power", "exponent": 2.0, "coeff": 1e308},
      "seed": 1}, 3, _PSI1_OVERFLOW),
    ({"command": "transform-verify", "profile": OVERFLOWING_TABLE, "seed": 1}, 3, _PSI1_OVERFLOW),
    ({"command": "extend-verify", "profile": OVERFLOWING_TABLE, "seed": 1,
      "extend": TINY_EXTEND}, 3, _PSI1_OVERFLOW),
    # the direct route with a Lipschitz constant, or a collar wall 2 psi(1), that is not
    # finite: the runs printed numpy RuntimeWarnings and exited 4 naming a quadrature node
    ({"command": "extend-verify", "profile": {"kind": "power", "exponent": 2.0, "coeff": 1e308},
      "seed": 1, "extend": TINY_EXTEND}, 3, "profile: Lipschitz constant = inf is not finite"),
    ({"command": "extend-verify", "profile": {"kind": "power", "exponent": 1.5, "coeff": 1e308},
      "seed": 1, "extend": TINY_EXTEND}, 3, "profile: 2 psi(1) = inf is not finite"),
], ids=["sweep-start-rounds-to-1", "sweep-stop-overflows-the-grid", "lipschitzify-hat-underflow",
        "extend-power-1000", "extend-step-1e-300", "transform-normalization-underflow",
        "extend-normalization-underflow", "transform-power-psi1-overflow",
        "transform-step-psi1-overflow", "extend-step-psi1-overflow",
        "extend-power-lipschitz-overflow", "extend-power-collar-overflow"])
def test_edge_configs_end_in_an_exit_code_with_a_field_level_message(tmp_path, capsys, cfg,
                                                                     code, field):
    # exit 2, 3 or 4 with a message naming the field, or exit 0 with no
    # message at all, never a traceback; a RuntimeWarning fails the test
    # (pyproject.toml)
    assert run(tmp_path, cfg)[0] == code
    err = capsys.readouterr().err
    assert (field in err) if code else (err == "")
    assert "Traceback" not in err


def test_sweep_through_an_underflowing_profile_exits_numeric_error(tmp_path, capsys):
    # t^18 and t^19 read 0 at the deepest tail panels, where no class can be read
    code, out = run(tmp_path, _sweep(s_start=16.0, s_stop=19.0, s_step=1.0))
    err = capsys.readouterr().err
    assert code == 4
    assert "numeric error: tail check: profile value 0.0 at t = " in err
    assert "Traceback" not in err
    assert not (out / "admissibility_sweep.csv").exists()


def test_dump_flags_are_run_config_fields(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setitem(cli.DISPATCH, "lipschitzify", lambda cfg: seen.append(cfg) or 0)
    assert run(tmp_path, BASE_LIP, extra=["--dump-points", "--dump-slices"])[0] == 0
    assert run(tmp_path, BASE_LIP, outdir="o2")[0] == 0
    (flagged, plain) = seen
    assert flagged.dump_points and flagged.dump_slices
    assert not plain.dump_points and not plain.dump_slices
    # options is the command's section, typed and with its defaults filled in
    assert flagged.options == plain.options == {"grid_count": 60, "grid_start": 1e-6,
                                                "pair_count": 2000}
    raw = copy.deepcopy(BASE_LIP)
    cli.build_run_config(argparse.Namespace(command="lipschitzify", seed=7, out="unused"), raw)
    assert raw == BASE_LIP  # the user's config is untouched, overrides included


def _readme_example_config() -> dict:
    text = (REPO / "README.md").read_text()
    block = re.search(r"Example config:\s*```json\n(.*?)```", text, re.S)
    return json.loads(block.group(1))


@pytest.mark.parametrize("path", sorted((REPO / "perfbench" / "workloads").glob("*.json"))
                         + ["README.md"], ids=lambda p: Path(p).name)
def test_shipped_configs_pass_build_run_config(path):
    # the benchmark's fresh-process probe validates configs with a namespace
    # that carries only command, seed and out
    raw = (_readme_example_config() if path == "README.md"
           else json.loads(Path(path).read_text()))
    args = argparse.Namespace(command=None, seed=None, out="unused")
    cfg = cli.build_run_config(args, raw)
    assert cfg.command == raw["command"]
    assert not cfg.dump_points and not cfg.dump_slices


def test_transform_zero_samples_rejected(tmp_path):
    cfg = {
        "command": "transform-verify",
        "profile": {"kind": "power", "exponent": 2.0, "coeff": 0.25},
        "transform": {"round_trip_samples": 0},
    }
    code, _ = run(tmp_path, cfg)
    assert code == 3


def test_out_of_memory_exits_config_error(tmp_path, capsys, monkeypatch):
    # a count too large for memory fails at allocation; raised here, since a real
    # huge allocation can succeed under memory overcommit
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,)")

    monkeypatch.setattr(transform, "verify_transform", too_large)
    code, out = run(tmp_path, {"command": "transform-verify", "profile": PW})
    err = capsys.readouterr().err
    assert code == 3
    assert "Unable to allocate 74.5 GiB" in err and "lower n, a count or the resolution" in err
    assert "Traceback" not in err
    assert out.is_dir()  # created before the command ran, as for every other error


def test_admissibility_sweep_command(tmp_path):
    cfg = {
        "command": "admissibility-sweep",
        "n": 3,
        "sweep": {"p": 4.0, "q": 2.0, "s_start": 1.1, "s_stop": 4.0,
                  "s_step": 0.1},
    }
    code, out = run(tmp_path, cfg)
    assert code == 0
    report = json.loads((out / "admissibility_report.json").read_text())
    assert report["frontier_sigma"] == pytest.approx(2.5)
    with open(out / "admissibility_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    assert rows[0]["admissible"] == "True"


def test_sweep_rejects_q_above_p(tmp_path):
    cfg = {
        "command": "admissibility-sweep",
        "sweep": {"p": 1.0, "q": 2.0},
    }
    code, _ = run(tmp_path, cfg)
    assert code == 3


def test_config_errors(tmp_path):
    code, _ = run(tmp_path, {"command": "unknown"})
    assert code == 3
    code, _ = run(tmp_path, {"command": "lipschitzify"})  # missing profile
    assert code == 3
    code, _ = run(tmp_path, {"command": "lipschitzify",
                             "profile": {"kind": "power", "exponent": 0.5}})
    assert code == 3
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 3


def test_malformed_profile_csv_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.5,0.2\n1.0,0.1\n")
    cfg = dict(BASE_LIP, profile={"kind": "csv", "path": str(bad)})
    code, _ = run(tmp_path, cfg)
    assert code == 3


def test_command_flag_overrides_config(tmp_path):
    cfg = dict(BASE_LIP)
    del cfg["command"]
    code, out = run(tmp_path, cfg, extra=["--command", "lipschitzify"])
    assert code == 0
    assert (out / "lipschitzify_report.json").exists()


def test_seed_flag_overrides_config(tmp_path):
    code, out = run(tmp_path, BASE_LIP, extra=["--seed", "42"])
    assert code == 0
    report = json.loads((out / "lipschitzify_report.json").read_text())
    assert report["config_echo"]["seed"] == 42


LIP_PROBE = {"command": "lipschitzify", "profile": PW, "lipschitzify": {"grid_count": 5}}
EXT_PROBE = {"command": "extend-verify", "profile": PW,
             "extend": {"functions": ["constant"], "quadrature": {"t_levels": 4}}}


@pytest.mark.parametrize("cfg, key, hint", [
    (dict(LIP_PROBE, profile={"kind": "power", "exponent": 2, "coef": 0.25}), "profile.coef",
     "coeff"),
    (dict(LIP_PROBE, sede=1), "sede", "seed"),
    (dict(LIP_PROBE, lipschitzify={"pair_cont": 5}), "lipschitzify.pair_cont", "pair_count"),
    (_sweep(s_stp=5.0), "sweep.s_stp", "s_stop"),
    (dict(SWEEP, transform={"round_trip_samples": 5}), "transform", "sweep"),
    (dict(SWEEP, profile=PW), "profile", "sweep"),
    (dict(EXT_PROBE, extend={"quadrature": {"gaus_t": 3}}), "extend.quadrature.gaus_t",
     "gauss_t"),
], ids=["profile-coef", "sede", "pair_cont", "s_stp", "sweep-foreign-section",
        "sweep-profile", "quadrature-gaus_t"])
def test_unknown_keys_exit_config_error_with_suggestion(tmp_path, capsys, monkeypatch,
                                                        cfg, key, hint):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built before validation")

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    monkeypatch.setattr(cli.np, "geomspace", no_grid)
    code, out = run(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == 3
    assert f"{key}: unknown key" in err and hint in err
    assert "Traceback" not in err
    assert not out.exists()  # rejected before any work


def test_valid_config_does_not_import_difflib():
    # the did-you-mean lookup loads difflib on the error path only
    code = ("import argparse, json, sys; from cuspext import cli; "
            "raw = json.loads(sys.argv[1]); "
            "cli.build_run_config(argparse.Namespace(command=None, seed=None, out='x'), raw); "
            "print('difflib' in sys.modules)")
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code, json.dumps(EXT_PROBE)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def test_sweep_and_step_extend_do_not_import_numpy_ma(tmp_path):
    # np.union1d and np.unique without return_inverse load numpy.ma: 0.6 MB of tip-sweep peak RSS
    configs = [dict(SWEEP, seed=0), {
        "command": "extend-verify", "seed": 0, "profile": TWO_STEP_ROWS,
        "extend": {"pq": [[2.0, 1.0]], "functions": ["constant", "wave"],
                   "trace_samples": 50, "decay_rays": 10,
                   "quadrature": {"t_levels": 6, "gauss_t": 3, "gauss_r": 3, "angular": 6}}}]
    argv = []
    for i, cfg in enumerate(configs):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        argv.append(["--config", str(path), "--out", str(tmp_path / f"out{i}")])
    code = ("import json, sys; from cuspext import cli; "
            "print([cli.main(a) for a in json.loads(sys.argv[1])], 'numpy.ma' in sys.modules)")
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[0, 0] False"


# -- fuzzing the validator ---------------------------------------------------

# Python's json reads integers of any size and NaN/Infinity; one draw in three is such
# an edge case
JSON_VALUES = st.sampled_from([10 ** 400, -(10 ** 400), 0, -1, True, float("inf"),
                               float("nan"), None, "", [], {}]) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)

FUZZ_BASES = {
    "lipschitzify": dict(LIP_PROBE, lipschitzify={
        "grid_count": 5, "grid_start": 1e-3, "pair_count": 5}),
    "transform-verify": {"command": "transform-verify", "profile": PW, "n": 3, "seed": 0,
                         "transform": {"round_trip_samples": 5, "image_samples": 5,
                                       "distortion_pairs": 5, "seam_samples": 5}},
    "extend-verify": {"command": "extend-verify", "seed": 0,
                      "profile": {"kind": "step", "breakpoints": [0.5, 1.0],
                                  "values": [0.1, 0.2], "doubling_constant": 2.0},
                      "extend": {"pq": [[2.0, 1.0]], "functions": ["tip-power"],
                                 "end_cap_map": "mirror", "trace_samples": 5,
                                 "decay_rays": 5, "field_params": {"gamma": 0.5},
                                 "quadrature": {"t_levels": 3, "gauss_t": 2}}},
    "admissibility-sweep": _sweep(s_start=1.1, s_stop=1.5, s_step=0.1),
}


def _key_paths(cfg, prefix=()):
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _misspell(key: str, data) -> str:
    i = data.draw(st.integers(0, len(key)))
    if data.draw(st.booleans()) and i < len(key):
        return key[:i] + key[i + 1:]
    return key[:i] + data.draw(st.sampled_from("aesx_")) + key[i:]


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(tuple(FUZZ_BASES)), data=st.data())
def test_fuzzed_configs_return_or_raise_config_error(tmp_path_factory, command, data):
    cfg = copy.deepcopy(FUZZ_BASES[command])
    for _ in range(data.draw(st.integers(0, 4))):
        paths = list(_key_paths(cfg))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        *outer, key = path
        holder = cfg
        for part in outer:
            holder = holder[part]
        op = data.draw(st.sampled_from(["value", "delete", "misspell", "add"]))
        if op == "value":
            holder[key] = data.draw(JSON_VALUES)
        elif op == "delete":
            del holder[key]
        elif op == "misspell":
            holder[_misspell(key, data)] = holder.pop(key)
        else:
            extra = data.draw(st.sampled_from(["transform", "sweep", "extend", "lipschitzify",
                                               "profile", "path", "kind"]) | st.text(max_size=6))
            holder[extra] = data.draw(JSON_VALUES)
    args = argparse.Namespace(command=None, seed=None, out="unused")

    def refuse(*a, **k):
        raise AssertionError("the validator started numerical work, a thread or a process")

    with pytest.MonkeyPatch.context() as mp:
        # a csv profile path is read relative to an empty directory
        mp.chdir(tmp_path_factory.mktemp("fuzz"))
        for target, name in ((cli.np, "linspace"), (cli.np, "geomspace"),
                             (threading.Thread, "start"), (subprocess, "Popen"),
                             (cli, "DISPATCH")):
            mp.setattr(target, name, refuse)
        threads = threading.active_count()
        try:
            rc = cli.build_run_config(args, cfg)
        except cli.ConfigError as err:
            assert str(err)
        else:
            assert rc.command == command
        assert threading.active_count() == threads
