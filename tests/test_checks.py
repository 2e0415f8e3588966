"""Every check record: its value and bound, and its verdict on passing, failing and NaN input.

Each record stands in for a comparison the CLI once made inline.  Where that
comparison was strict or a lower bound, the record keeps it bit for bit, which
the cases exactly at the bound pin.
"""

import ast
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from cuspext import cli, lipschitzify, transform, verify
from cuspext.admissibility import in_limit_region
from cuspext.errors import Check
from cuspext.extension import extend
from cuspext.fields import ScalarField, linear_combination, make_field
from cuspext.geometry import DomainSpec, normalize
from cuspext.profiles import PowerProfile, StepProfile
from cuspext.quadrature import NormReport
from cuspext.transform import DistortionReport, ImageCheckResult, sample_domain

NAN = float("nan")
INF = float("inf")
TINY = float(np.nextafter(0.0, 1.0))
FMAX = sys.float_info.max
BELOW_005 = float(np.nextafter(0.05, 0.0))
POWER = PowerProfile(2.0, 0.25)
TWO_STEP = StepProfile([0.5, 1.0], [0.1, 0.2])


def same(a, b) -> bool:
    """Equality that counts NaN equal to NaN."""
    return repr(a) == repr(b)


def nan_field():
    return ScalarField("nan", lambda z: np.full(np.shape(z)[:-1], np.nan))


def drifting_field():
    """A field that reads one larger at every call: no operator reproduces it."""
    calls = itertools.count()
    return ScalarField("drift", lambda z: np.full(np.shape(z)[:-1], float(next(calls))))


# -- the record ---------------------------------------------------------------


@pytest.mark.parametrize("value, bound, ok", [
    (1.0, 2.0, True), (2.0, 2.0, True), (3.0, 2.0, False), (INF, INF, True),
    (NAN, 2.0, False), (1.0, NAN, False), (NAN, NAN, False)])
def test_check_ok_is_value_at_most_bound(value, bound, ok):
    assert Check(value, bound).ok is ok


EDGES = [-INF, -1.0, -0.0, 0.0, TINY, 0.01, BELOW_005, 0.05, float(np.nextafter(0.05, 1.0)),
         1.0, FMAX, INF, NAN]


@pytest.mark.parametrize("x", EDGES)
def test_record_forms_keep_strict_and_lower_bounds(x):
    assert Check(x, BELOW_005).ok == (x < 0.05)
    assert Check(-x, -TINY).ok == (0.0 < x)
    assert Check(x, FMAX).ok == (x < INF)
    assert Check(abs(x), FMAX).ok == bool(np.isfinite(x))


# -- lipschitzify --------------------------------------------------------------

GRID = np.geomspace(1e-6, 1.0, 40)
PAIRS = np.random.default_rng(1).uniform(1e-9, 1.0, size=(500, 2))


def lipschitz_record(monkeypatch, hat=None):
    if hat is not None:
        monkeypatch.setattr(lipschitzify, "hat_values", hat)
    _, _, checks = lipschitzify.verify_transfer(PowerProfile(2.0), GRID, 500, 1)
    return checks["lipschitz_bound_ok"]


def test_lipschitz_bound_record(monkeypatch):
    # psi(1) = 1, so the Lipschitz constant is 2 and the bound 2 tol
    psi, a, b = PowerProfile(2.0), PAIRS[:, 0], PAIRS[:, 1]
    hat = lipschitzify.hat_values
    slack = np.abs(hat(psi, a) - hat(psi, b)) - 2.0 * np.abs(a - b)
    check = lipschitz_record(monkeypatch)
    assert check == Check(float(np.max(slack)), 2e-12) and check.ok
    # a 3-Lipschitz stand-in for the hat profile breaks the bound by max |a - b|
    check = lipschitz_record(monkeypatch, lambda psi, t: 3.0 * np.asarray(t))
    slack = np.abs(3.0 * a - 3.0 * b) - 2.0 * np.abs(a - b)
    assert check == Check(float(np.max(slack)), 2e-12) and not check.ok
    check = lipschitz_record(monkeypatch, lambda psi, t: np.where(t > 0.5, np.nan, t))
    assert np.isnan(check.value) and not check.ok


def test_doubling_transfer_without_a_testable_point_is_absent():
    # a one-point grid [1.0] lies outside t <= 1 / (2 (1 + psi(1)))
    psi = PowerProfile(2.0)
    assert lipschitzify.verify_doubling_transfer(psi, [1.0]) is None
    _, _, checks = lipschitzify.verify_transfer(psi, np.array([1.0]), 10, 1)
    assert "doubling_transfer_ok" not in checks
    _, _, checks = lipschitzify.verify_transfer(psi, GRID, 10, 1)
    assert checks["doubling_transfer_ok"].ok


# -- transform -----------------------------------------------------------------

SPEC = normalize(DomainSpec(3, POWER))[0]
SMALL = {"round_trip_samples": 300, "image_samples": 200, "distortion_pairs": 300,
         "seam_samples": 20}


def transform_checks():
    return transform.verify_transform(SPEC, 1, **SMALL)[2]


def test_round_trip_record(monkeypatch):
    z = transform.sample_box(3, 300, np.random.default_rng(1))
    want = np.max(np.abs(transform.inverse_map(SPEC, transform.forward_map(SPEC, z)) - z))
    check = transform_checks()["round_trip_ok"]
    assert check == Check(float(want), 1e-9) and check.ok
    # the image check stubbed out, the round trip is inverse_map's only caller
    monkeypatch.setattr(transform, "verify_image",
                        lambda *args: ImageCheckResult(True, 0, 0, None))
    real = transform.inverse_map
    monkeypatch.setattr(transform, "inverse_map", lambda spec, w: real(spec, w) + 1e-6)
    check = transform_checks()["round_trip_ok"]
    assert check.value == pytest.approx(1e-6, rel=1e-6) and not check.ok

    def nan_row(spec, w):
        out = real(spec, w)
        out[7, 1] = np.nan
        return out

    monkeypatch.setattr(transform, "inverse_map", nan_row)
    check = transform_checks()["round_trip_ok"]
    assert np.isnan(check.value) and not check.ok


@pytest.mark.parametrize("stretch, ok", [
    ({"cone": {1e-3: 2.0, 1e-5: 3.0}}, True),
    ({"cone": {1e-3: 100.0}, "disk": {1e-5: 10.0}}, True),  # each exactly at its bound
    ({"cone": {1e-3: 150.0, 1e-5: 120.0}}, False),  # too large
    ({"cone": {1e-3: 1.0}, "disk": {1e-5: 20.0}}, False),  # too spread
    ({"cone": {1e-3: 1.0}, "disk": {1e-5: NAN}}, False),  # NaN past the first element
], ids=["pass", "at-bounds", "large", "spread", "nan"])
def test_seam_continuity_record(monkeypatch, stretch, ok):
    monkeypatch.setattr(transform, "seam_continuity", lambda *args: stretch)
    top, spread = transform_checks()["seam_continuity_ok"]
    values = [k for per in stretch.values() for k in per.values()]
    high = float(np.max(values))  # NaN if any value is
    assert same((top.value, top.bound), (high, 100.0))
    assert same((spread.value, spread.bound), (high / max(float(np.min(values)), 1e-300), 10.0))
    assert (top.ok and spread.ok) is ok


DISTORTIONS = [
    (0.5, 1.6, 0.5), (0.0, 1.6, 0.5), (TINY, 1.6, 0.5), (-0.5, 1.6, 0.5), (0.5, 0.5, 0.5),
    (0.6, 0.5, 0.5), (0.5, INF, 0.5), (0.5, FMAX, 0.5), (0.5, 1.6, 0.0), (0.5, 1.6, TINY),
    (NAN, 1.6, 0.5), (0.5, NAN, 0.5), (0.5, 1.6, NAN)]


@pytest.mark.parametrize("min_ratio, max_ratio, min_jacobian", DISTORTIONS)
def test_distortion_finite_record(monkeypatch, min_ratio, max_ratio, min_jacobian):
    report = DistortionReport(300, min_ratio, max_ratio, min_jacobian, 1.0)
    monkeypatch.setattr(transform, "distortion_sample", lambda *args: report)
    records = transform_checks()["distortion_finite_ok"]
    assert same([(c.value, c.bound) for c in records],
                [(-min_ratio, -TINY), (min_ratio, max_ratio), (max_ratio, FMAX),
                 (-min_jacobian, -TINY)])
    old = 0.0 < min_ratio <= max_ratio < np.inf and 0.0 < min_jacobian
    assert all(c.ok for c in records) == old


# -- the extension operator ----------------------------------------------------


@pytest.mark.parametrize("psi, bound", [(POWER, 1e-12), (TWO_STEP, 1e-8)],
                         ids=["direct", "straightened"])
def test_trace_record(psi, bound):
    ext, u = extend(psi, 3), make_field("wave", 3)
    z = sample_domain(ext.spec, 500, np.random.default_rng(1))
    [check] = verify.trace_check(ext, [u], count=500, rng_seed=1)
    assert check == Check(float(np.max(np.abs(ext.field(u).fn(z) - u.fn(z)))), bound)
    assert check.ok
    [drift, nan] = verify.trace_check(ext, [drifting_field(), nan_field()], count=500,
                                      rng_seed=1)
    assert drift.value >= 1.0 and drift.bound == bound and not drift.ok
    assert np.isnan(nan.value) and not nan.ok


def test_linearity_record():
    ext, v = extend(POWER, 3), make_field("wave", 3)
    pts = transform.sample_box(3, 400, np.random.default_rng(2), t_range=(-0.5, 3.5),
                               radius=0.6)
    u = make_field("axial", 3)
    [good, drift, nan] = verify.linearity_check(ext, [u, drifting_field(), nan_field()], v, pts)
    ew = ext.field(linear_combination(0.7, u, -1.3, v)).fn(pts)
    want = np.max(np.abs(ew - (0.7 * ext.field(u).fn(pts) - 1.3 * ext.field(v).fn(pts))))
    assert good == Check(float(want), 1e-12) and good.ok
    assert drift.value > 1e-3 and not drift.ok
    assert np.isnan(nan.value) and not nan.ok


def test_decay_record_fails_beyond_its_modulus(monkeypatch):
    ext, fields = extend(POWER, 3), [make_field("wave", 3)]
    [good] = verify.boundary_decay_check(ext, fields, rays=90, rng_seed=3)
    monkeypatch.setattr(verify, "DECAY_SAFETY", 1e-9)
    [tight] = verify.boundary_decay_check(ext, fields, rays=90, rng_seed=3)
    assert good.bound == tight.bound == 1.0 and good.ok
    # the worst ray's normalised value scales with 1 / DECAY_SAFETY
    assert tight.value == pytest.approx(good.value * 2.0 / 1e-9, rel=1e-9)
    assert not tight.ok


def norm_report(p, q, ratio, delta, zero=False):
    return NormReport(p=p, q=q, norm_u_w1p=0.0 if zero else 1.0, norm_eu_w1q=1.0,
                      ratio=None if zero else ratio, refinement_delta=delta, resolution={},
                      frame="direct", zero_denominator=zero)


def old_ratio_ok(n, rep):
    """The rule extend-verify applied inline before the records."""
    if rep.zero_denominator:
        return True
    if in_limit_region(n, rep.p, rep.q):
        return bool(np.isfinite(rep.ratio) and rep.refinement_delta is not None
                    and rep.refinement_delta < 0.05)
    return bool(np.isfinite(rep.ratio))


@pytest.mark.parametrize("pq", [(2.0, 1.0), (4.0, 1.9)], ids=["in-region", "outside"])
@pytest.mark.parametrize("ratio", [1.5, FMAX, INF, NAN])
@pytest.mark.parametrize("delta", [0.01, BELOW_005, 0.05, None, NAN])
def test_ratio_record(pq, ratio, delta):
    rep = norm_report(*pq, ratio, delta)
    records = verify.ratio_check(3, rep)
    want = [(abs(ratio), FMAX)]
    if in_limit_region(3, *pq):
        want.append((NAN if delta is None else delta, BELOW_005))
    assert same([(c.value, c.bound) for c in records], want)
    assert all(c.ok for c in records) == old_ratio_ok(3, rep)


def test_zero_denominator_ratio_asserts_nothing():
    assert verify.ratio_check(3, norm_report(2.0, 1.0, None, None, zero=True)) == ()


# -- the CLI keeps no verdicts ---------------------------------------------------


def test_commands_hold_no_comparison_or_threshold():
    tree = ast.parse(Path(cli.__file__).read_text())
    commands = [f for f in tree.body if isinstance(f, ast.FunctionDef)
                and f.name.startswith("cmd_")]
    assert len(commands) == len(cli.DISPATCH)
    for func in commands:
        for node in ast.walk(func):
            assert not isinstance(node, ast.Compare), (func.name, ast.unparse(node))
            if isinstance(node, ast.Constant) and type(node.value) in (int, float):
                assert node.value in (0, 1), (func.name, node.value)
