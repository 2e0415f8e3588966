"""The operator checks: one pullback per probe set, read alike by every field."""

import re

import numpy as np
import pytest

from cuspext import geometry, transform, verify
from cuspext.errors import Check
from cuspext.extension import extend
from cuspext.fields import LIBRARY, ScalarField, make_field
from cuspext.geometry import DomainSpec, normalize
from cuspext.profiles import PowerProfile, StepProfile
from cuspext.transform import sample_domain

TWO_STEP = StepProfile([0.5, 1.0], [0.1, 0.2])
# psi(1) = 0.6 > 1/4, so the straightened route rescales x first
WIDE_STEP = StepProfile([0.5, 1.0], [0.3, 0.6])
PROFILES = [PowerProfile(2.0, 0.25), TWO_STEP, WIDE_STEP]
PROFILE_IDS = ["direct-power", "straightened-two-step", "straightened-rescaled-step"]


def seam_verdict(monkeypatch, jumps, cap):
    """seam_continuity_check's (verdict, worst seam) on one field's jump table and cap."""
    monkeypatch.setattr(verify, "seam_jumps", lambda ext, fields, *args: [jumps])
    monkeypatch.setattr(verify, "seam_modulus_cap", lambda ext, fields, seed: [cap])
    [(checks, worst)] = verify.seam_continuity_check(None, [None])
    assert repr(checks) == repr(tuple(Check(jump, cap * delta) for per in jumps.values()
                                      for delta, jump in per.items()))
    return all(c.ok for c in checks), worst


def test_seam_verdict_names_the_worst_seam(monkeypatch):
    # both seams fail; the later one in draw order is worse relative to its delta
    report = {"cap-interface": {1e-3: 0.2, 1e-5: 0.0},
              "cap-end": {1e-3: 0.0, 1e-5: 0.01}}
    assert seam_verdict(monkeypatch, report, 10.0) == (False, "cap-end")
    assert seam_verdict(monkeypatch, report, 1e4) == (True, None)
    # a jump exactly at cap * delta passes
    assert seam_verdict(monkeypatch, {"cap-end": {1e-3: 10.0 * 1e-3}}, 10.0) == (True, None)


def test_seam_verdict_fails_a_nan_jump(monkeypatch):
    nan = float("nan")
    assert seam_verdict(monkeypatch, {"cap-end": {1e-3: nan}}, 1.0) == (False, "cap-end")
    # a NaN jump is named before any finite failure, wherever it sits
    report = {"cap-end": {1e-3: nan}, "cap-interface": {1e-3: 5.0}}
    assert seam_verdict(monkeypatch, report, 1.0) == (False, "cap-end")
    report = {"cap-interface": {1e-3: 5.0, 1e-5: 0.0}, "cap-end": {1e-3: 0.0, 1e-5: nan}}
    assert seam_verdict(monkeypatch, report, 1.0) == (False, "cap-end")
    # so does a NaN cap
    assert seam_verdict(monkeypatch, {"cap-end": {1e-3: 0.0}}, nan) == (False, "cap-end")


@pytest.mark.parametrize("psi", PROFILES, ids=PROFILE_IDS)
def test_boundary_decay_fails_a_nan_field(psi):
    nan_field = ScalarField("nan", lambda z: np.full(z.shape[:-1], np.nan))
    ok_field = make_field("wave", 3)
    bad, good = verify.boundary_decay_check(extend(psi, 3), [nan_field, ok_field], rays=60)
    assert not bad.ok and np.isnan(bad.value) and bad.bound == 1.0
    assert good.ok and 0.0 < good.value <= 1.0


@pytest.mark.parametrize("exponent, tip", [(236.0, "2.26"), (1000.0, "0.0")],
                         ids=["cap-overflows", "tip-underflows"])
def test_seam_cap_is_finite_or_raises(exponent, tip):
    # psi(0.05) = 0.25 * 0.05**s: a cap of inf would pass every straddle
    ext = extend(PowerProfile(exponent, 0.25), 3)
    with pytest.raises(FloatingPointError, match=re.escape(f"psi(0.05) = {tip}")):
        verify.seam_modulus_cap(ext, [make_field("constant", 3)], 1)


@pytest.mark.filterwarnings("error")
def test_decay_check_refuses_a_collar_of_no_width():
    # 0.25 t^1000 underflows to 0 below t = 0.47: a ray there has no collar to
    # step into and would read 0 / inf = 0 without being tested
    ext = extend(PowerProfile(1000.0, 0.25), 3)
    fields = [make_field("constant", 3), make_field("wave", 3)]
    with pytest.raises(FloatingPointError, match=r"collar of no width at t = .*: R\(t\) = 0\.0$"):
        verify.boundary_decay_check(ext, fields, rays=60, rng_seed=1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("exponent", [2.0, 236.0])
def test_decay_rays_end_in_the_collar(monkeypatch, exponent):
    # 0.25 t^2 is narrower than delta = 1e-2 below t = 0.2: a cusp ray stepping
    # in by delta would cross the axis there, and below R = delta / 4 it would
    # leave the support, read 0 and pass untested
    ext = extend(PowerProfile(exponent, 0.25), 3)
    pulled, pullback = [], type(ext).pullback
    monkeypatch.setattr(type(ext), "pullback",
                        lambda self, z, *args: pulled.append(z) or pullback(self, z, *args))
    verify.boundary_decay_check(ext, [make_field("wave", 3)], rays=3000, rng_seed=1)
    cusp = pulled[0].reshape(3, 3, 1000, 3)[:, 0]  # per delta: cusp, tube, end disk
    R = geometry.collar_radius(ext.hat_context.spec, cusp[..., 0])
    r = np.hypot(cusp[..., 1], cusp[..., 2])  # a squared norm underflows at R ~ 1e-258
    assert (R < 1e-2).any()
    assert np.all(r >= R * (1.0 - 1e-12)) and np.all(r <= 2.0 * R)


@pytest.mark.parametrize("psi", PROFILES, ids=PROFILE_IDS)
def test_check_reports_do_not_depend_on_other_fields(psi):
    # every check pulls its points back once for all fields; a field's
    # report must be bitwise the one it gets alone
    ext = extend(psi, 3)
    fields = [make_field(name, 3) for name in LIBRARY]
    v = make_field("wave", 3)
    pts = transform.sample_box(3, 400, np.random.default_rng(3), t_range=(-0.5, 3.5), radius=0.6)
    checks = [
        lambda fs: verify.trace_check(ext, fs, count=1000, rng_seed=1),
        lambda fs: verify.boundary_decay_check(ext, fs, rays=150, rng_seed=2),
        lambda fs: verify.seam_continuity_check(ext, fs, rng_seed=3),
        lambda fs: verify.seam_jumps(ext, fs, 3),
        lambda fs: verify.seam_modulus_cap(ext, fs, 4),
        lambda fs: verify.linearity_check(ext, fs, v, pts),
    ]
    for check in checks:
        together = check(fields)
        assert len(together) == len(fields)
        for u, report in zip(fields, together):
            assert repr(check([u])) == repr([report])


def per_batch_straddle(f, n, draws, per_seam, seed):
    """straddle_probe as one call of f per side of each seam batch."""
    out = {}
    for delta in geometry.SEAM_DELTAS:
        rng = np.random.default_rng(seed)
        direction = geometry.unit_directions(rng, per_seam, n - 1)
        for draw in draws:
            for seam, (t, r, dt, dr) in draw(rng, 0.5 * delta).items():
                base = np.concatenate([t[:, None], r[:, None] * direction], axis=1)
                off = np.concatenate([dt[:, None], dr[:, None] * direction], axis=1)
                diff = np.asarray(f(base - off)) - np.asarray(f(base + off))
                jump = np.abs(diff) if diff.ndim == 1 else geometry.row_norm(diff)
                out.setdefault(seam, {})[delta] = float(jump.max())
    return out


@pytest.mark.parametrize("psi", PROFILES, ids=PROFILE_IDS)
def test_seam_probes_match_per_batch_probe(psi, monkeypatch):
    # the map's and the extension's seam checks, stacked and probed one batch at a time
    ext, fields = extend(psi, 3), [make_field(name, 3) for name in LIBRARY]
    spec, _ = normalize(DomainSpec(3, psi))
    per_seam, seed = 60, 9
    got = (transform.seam_continuity(spec, per_seam, seed), verify.seam_jumps(ext, fields, seed))

    def per_batch(count):
        return lambda f, *args: [per_batch_straddle(lambda z, i=i: f(z)[i], *args)
                                 for i in range(count)]

    monkeypatch.setattr(geometry, "straddle_probe", per_batch(1))
    want = (transform.seam_continuity(spec, per_seam, seed),)
    monkeypatch.setattr(geometry, "straddle_probe", per_batch(len(fields)))
    want += (verify.seam_jumps(ext, fields, seed),)
    assert repr(got) == repr(want)


def per_field_decay(ext, u, rays, deltas, seed, safety=2.0):
    """boundary_decay_check for one field, one extension call per batch of rays."""
    spec = ext.hat_context.spec
    rng = np.random.default_rng(seed)
    hat_u, eu = ext.hat_input(u), ext.hat_field(u)
    m_u = max(float(np.abs(np.asarray(hat_u.fn(sample_domain(spec, 4000, rng)))).max()), 1e-12)
    per = max(1, rays // 3)
    direction = geometry.unit_directions(rng, per, spec.n - 1)
    worst = 0.0
    for delta in deltas:
        for t_lo, t_hi in ((0.05, 1.0), (1.0 + 1e-6, 3.0 - 1e-6)):
            t = rng.uniform(t_lo, t_hi, size=per)
            R = geometry.collar_radius(spec, t)
            step = np.minimum(delta, R)
            z = np.concatenate([t[:, None], ((2.0 * R - step)[:, None]) * direction], axis=1)
            worst = max(worst, float(np.max(np.abs(eu.fn(z)) / (safety * m_u * (step / R)))))
        rad = rng.uniform(0.0, 2.0 * spec.psi1 * 0.98, size=per)
        z = np.concatenate([np.full((per, 1), 3.0 - delta), rad[:, None] * direction], axis=1)
        worst = max(worst, float(np.max(np.abs(eu.fn(z)) / (safety * m_u * delta))))
    return Check(worst, 1.0)


@pytest.mark.parametrize("psi", PROFILES, ids=PROFILE_IDS)
def test_boundary_decay_matches_per_batch_loop(psi):
    ext, fields = extend(psi, 3), [make_field(name, 3) for name in LIBRARY]
    got = verify.boundary_decay_check(ext, fields, rays=300, rng_seed=5)
    assert repr(got) == repr([per_field_decay(ext, u, 300, (1e-2, 1e-3, 1e-4), 5)
                              for u in fields])


def test_straddle_probe_calls_f_once():
    calls = []

    def f(Z):
        calls.append(Z.shape)
        return [Z[:, 0], Z]

    def draws(rng, h):
        k = 5
        return {"a": (rng.uniform(0.0, 1.0, k), np.ones(k), np.full(k, h), np.zeros(k)),
                "b": (np.ones(k), rng.uniform(0.0, 1.0, k), np.zeros(k), np.full(k, h))}

    scalar, vector = geometry.straddle_probe(f, 3, (draws,), 5, 0)
    assert calls == [(2 * len(geometry.SEAM_DELTAS) * 2 * 5, 3)]
    want = per_batch_straddle(lambda z: z[:, 0], 3, (draws,), 5, 0)
    assert scalar == want
    assert list(scalar) == ["a", "b"] and list(scalar["a"]) == list(geometry.SEAM_DELTAS)
    assert vector == per_batch_straddle(lambda z: z, 3, (draws,), 5, 0)
