from collections import Counter

import numpy as np
import pytest
from fd_oracle import central_difference
from helpers import (
    CSV_TABLE,
    cutoff_cusp_gradient,
    load_csv_text,
    region_labels,
    solved_hat_profile,
    support_check,
    unfused_extension,
    unfused_straightened_input,
)

from cuspext import extension, geometry, transform
from cuspext.errors import ProfileDomainError
from cuspext.extension import (
    ExtensionContext,
    _split_collar,
    cutoff_cap,
    end_cap_pullback,
    extend,
    extend_general,
    extend_lipschitz,
)
from cuspext.fields import LIBRARY, ScalarField, make_field
from cuspext.geometry import DomainSpec, ExtRegion
from cuspext.profiles import (
    LinearProfile,
    PiecewiseLinearProfile,
    PowerProfile,
    StepProfile,
)
from cuspext.transform import sample_domain
from cuspext import verify

LIN_SPEC = DomainSpec(3, LinearProfile(0.25))
POW_SPEC = DomainSpec(3, PowerProfile(2.0, 0.25))


@pytest.fixture
def lin_ctx():
    return ExtensionContext(LIN_SPEC)


@pytest.fixture
def pow_ctx():
    return ExtensionContext(POW_SPEC)


def test_context_requires_lipschitz_profile():
    step = StepProfile([0.5, 1.0], [0.1, 0.2])
    with pytest.raises(ValueError, match="Lipschitz"):
        ExtensionContext(DomainSpec(3, step))


@pytest.mark.parametrize("psi", [StepProfile([1.0], [0.2]), StepProfile([0.5, 1.0], [0.1, 0.2]),
                                 solved_hat_profile(PowerProfile(2.0),
                                                    np.linspace(0.05, 1.0, 20))],
                         ids=["one-row", "two-step", "hat-table"])
def test_a_table_is_always_straightened(psi):
    # the route follows the profile's type: a table carries no Lipschitz constant
    assert psi.lipschitz_constant is None
    assert extend(psi, 3).frame == "straightened"


def split_collar(ctx, z):
    """_split_collar at one point, with the collar radius at its t passed explicitly."""
    return _split_collar(ctx, z, geometry.collar_radius(ctx.spec, z[0]))


@pytest.mark.parametrize("t", [0.5, 1.0, 1.5])
def test_collar_reflection_and_cutoff(lin_ctx, t):
    # one collar over cusp and tube: R(t) = psi(min(t, 1)) = 0.25 min(t, 1)
    R = 0.25 * min(t, 1.0)
    mid = split_collar(lin_ctx, [t, 1.5 * R, 0.0])[4]
    assert np.linalg.norm(mid[1:]) == pytest.approx(0.75 * R)
    inner = split_collar(lin_ctx, [t, R * (1 + 1e-13), 0.0])[4]
    assert np.linalg.norm(inner[1:]) == pytest.approx(R, rel=1e-9)
    outer = split_collar(lin_ctx, [t, 2 * R * (1 - 1e-13), 0.0])[4]
    assert np.linalg.norm(outer[1:]) == pytest.approx(R / 2, rel=1e-9)
    assert mid[0] == t  # axial coordinate preserved
    assert split_collar(lin_ctx, [t, R, 0.0])[5] == pytest.approx(1.0)
    assert split_collar(lin_ctx, [t, 1.5 * R, 0.0])[5] == pytest.approx(0.5)
    assert split_collar(lin_ctx, [t, 2 * R, 0.0])[5] == pytest.approx(0.0)
    for bad in ([t, 3 * R, 0.0], [t, 0.5 * R, 0.0], [2.5, 1.5 * R, 0.0]):
        with pytest.raises(ProfileDomainError):
            split_collar(lin_ctx, bad)


def test_cutoff_cusp_values(lin_ctx):
    t = 0.5
    pv = 0.125
    assert split_collar(lin_ctx, [t, pv, 0.0])[5] == pytest.approx(1.0)
    assert split_collar(lin_ctx, [t, 1.5 * pv, 0.0])[5] == pytest.approx(0.5)
    assert split_collar(lin_ctx, [t, 2 * pv, 0.0])[5] == pytest.approx(0.0)
    with pytest.raises(ProfileDomainError):
        split_collar(lin_ctx, [1.5, 0.2, 0.0])


def test_cutoff_cusp_gradient_oracle(lin_ctx):
    # analytic collar-weight gradient for a linear profile
    z = np.array([[0.5, 0.15, 0.08], [0.8, -0.25, 0.1]])
    got = cutoff_cusp_gradient(lin_ctx, z)
    t = z[:, 0]
    r = np.linalg.norm(z[:, 1:], axis=1)
    pv = 0.25 * t
    expected_t = r * 0.25 / pv ** 2
    assert np.allclose(got[:, 0], expected_t)
    assert np.allclose(np.linalg.norm(got[:, 1:], axis=1), 1.0 / pv)
    # magnitude bound C / psi(t) with C = 1 + 2 Lip(psi)
    mag = np.linalg.norm(got, axis=1)
    assert np.all(mag <= (1.0 + 2.0 * 0.25) / pv + 1e-12)


def test_end_cap_maps():
    z = [2.5, 0.1, 0.0]
    assert end_cap_pullback(z)[0] == 1.5
    assert cutoff_cap(z) == pytest.approx(0.5)
    assert cutoff_cap([3.0 - 1e-9, 0.1, 0.0]) == pytest.approx(1e-9, abs=1e-12)


def test_extend_constant_values(lin_ctx):
    one = make_field("constant", 3)
    eu = extend_lipschitz(lin_ctx, one)
    assert eu.fn(np.array([0.5, 1.5 * 0.125, 0.0])) == pytest.approx(0.5)
    assert eu.fn(np.array([1.5, 1.5 * 0.25, 0.0])) == pytest.approx(0.5)
    # end cap composes the cap weight with the already-extended values
    assert eu.fn(np.array([2.5, 0.1, 0.0])) == pytest.approx(0.5)
    assert eu.fn(np.array([2.5, 1.5 * 0.25, 0.0])) == pytest.approx(0.5 * 0.5)


def test_extend_zero_field(lin_ctx):
    zero = make_field("constant", 3, value=0.0)
    eu = extend_lipschitz(lin_ctx, zero)
    rng = np.random.default_rng(0)
    z = np.concatenate([rng.uniform(-1, 4, size=(2000, 1)),
                        rng.uniform(-1, 1, size=(2000, 2))], axis=1)
    assert np.all(eu.fn(z) == 0.0)


def test_extend_axial_reflection_value(lin_ctx):
    u = make_field("axial", 3)
    eu = extend_lipschitz(lin_ctx, u)
    # reflection preserves t, so the collar value is cutoff * t
    assert eu.fn(np.array([0.5, 1.5 * 0.125, 0.0])) == pytest.approx(0.25)


def test_trace_identity_exact():
    fields = [make_field(name, 3) for name in ("constant", "axial", "wave")]
    for rep in verify.trace_check(extend(POW_SPEC.psi, 3), fields, count=10_000, rng_seed=1):
        assert rep.value == 0.0  # bitwise equality at every sample
        assert rep.bound == verify.TRACE_TOL["direct"] == 1e-12


def test_support_vanishes_outside(pow_ctx):
    u = make_field("wave", 3)
    eu = extend_lipschitz(pow_ctx, u)
    rep = support_check(pow_ctx, eu, count=5000, rng_seed=2)
    assert rep.ok and rep.max_abs_outside == 0.0


def test_linearity_pointwise():
    u = make_field("axial", 3)
    v = make_field("radial-sq", 3)
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.uniform(-0.5, 3.5, size=(3000, 1)),
                          rng.uniform(-0.6, 0.6, size=(3000, 2))], axis=1)
    [rep] = verify.linearity_check(extend(POW_SPEC.psi, 3), [u], v, pts)
    assert rep.value <= 1e-12


def test_boundary_decay():
    fields = [make_field(name, 3) for name in ("constant", "axial", "wave")]
    for rep in verify.boundary_decay_check(extend(POW_SPEC.psi, 3), fields, rays=999,
                                           rng_seed=4):
        assert rep.ok, rep


def fixed_seam_cap(monkeypatch):
    """Hold the seam check to the cap 4 (1 / psi(0.05) + 2) of the power cusp."""
    cap = 4.0 * (1.0 / POW_SPEC.psi.value(0.05) + 2.0)
    monkeypatch.setattr(verify, "seam_modulus_cap", lambda ext, fields, seed: [cap] * len(fields))


def test_seam_continuity_mirror_passes(monkeypatch):
    fixed_seam_cap(monkeypatch)
    u = make_field("axial", 3)
    [(checks, worst)] = verify.seam_continuity_check(extend(POW_SPEC.psi, 3), [u], rng_seed=5)
    assert worst is None and all(c.ok for c in checks), checks


@pytest.mark.parametrize("offset", [1.0, 2.0], ids=["shift1", "shift2"])
def test_seam_detector_flags_shift_modes(shift_end_cap, offset, monkeypatch):
    # the literal axial shifts leave an O(1) jump at the cap interface for
    # axially-varying fields; the seam check is the designated detector
    shift_end_cap(offset)
    fixed_seam_cap(monkeypatch)
    u = make_field("axial", 3)
    ext = extend(POW_SPEC.psi, 3)
    [(checks, worst)] = verify.seam_continuity_check(ext, [u], rng_seed=6)
    assert not all(c.ok for c in checks)
    assert worst == "cap-interface"
    [report] = verify.seam_jumps(ext, [u], 6)
    assert report["cap-interface"][1e-7] > 0.1  # jump does not shrink with delta


def test_extend_general_trace_step_profile():
    step = StepProfile([0.5, 1.0], [0.1, 0.2])
    u = make_field("wave", 3)
    [rep] = verify.trace_check(extend_general(step, 3), [u], count=10_000, rng_seed=7)
    assert rep.value <= 1e-8


def test_extend_general_trace_unnormalized_power():
    # psi(1) = 1 forces an internal radial rescale before straightening
    u = make_field("constant", 3)
    conj = extend_general(PowerProfile(2.0), 3)
    assert conj.scale == pytest.approx(0.25)
    [rep] = verify.trace_check(conj, [u], count=10_000, rng_seed=8)
    assert rep.value <= 1e-8


def test_extend_general_matches_direct_on_domain():
    # for a Lipschitz linear profile the straightened route must agree with
    # the direct route on the domain itself (both reproduce u there)
    u = make_field("wave", 3)
    direct = extend_lipschitz(ExtensionContext(LIN_SPEC), u)
    conj = extend_general(LinearProfile(0.25), 3)
    rng = np.random.default_rng(9)
    z = sample_domain(LIN_SPEC, 5000, rng)
    assert np.max(np.abs(direct.fn(z) - conj.field_pullback(z)(u)[0])) <= 1e-9


def test_extend_general_linearity():
    u = make_field("axial", 3)
    v = make_field("wave", 3)
    rng = np.random.default_rng(10)
    pts = np.concatenate([rng.uniform(-0.5, 3.5, size=(500, 1)),
                          rng.uniform(-0.6, 0.6, size=(500, 2))], axis=1)

    [rep] = verify.linearity_check(extend_general(PowerProfile(2.0), 3), [u], v, pts)
    assert rep.value <= 1e-12


@pytest.mark.parametrize("psi, frame", [(PowerProfile(2.0, 0.25), "direct"),
                                        (LinearProfile(0.25), "direct"),
                                        (StepProfile([0.5, 1.0], [0.1, 0.2]), "straightened")],
                         ids=["power", "linear", "step"])
def test_extend_chooses_one_route(psi, frame):
    # extend is the one place the route is chosen; each route's fields are
    # bitwise those of the route's own constructor
    u = make_field("wave", 3)
    ext = extend(psi, 3)
    assert ext.frame == frame
    rng = np.random.default_rng(11)
    z = np.concatenate([rng.uniform(-0.5, 3.5, size=(2000, 1)),
                        rng.uniform(-0.6, 0.6, size=(2000, 2))], axis=1)
    hat = ext.hat_field(u)
    got = [ext.field_pullback(z)(u), (hat.fn(z), hat.grad(z)), ext.input_pullback(z, True)(u)]
    if frame == "direct":
        # E is E^ itself, and u o T^-1 is u
        assert ext.inner is None and ext.scale == 1.0
        ref = extend_lipschitz(ExtensionContext(DomainSpec(3, psi)), u)
        want = [(ref.fn(z), None), (ref.fn(z), ref.grad(z)), (u.fn(z), u.grad(z))]
    else:
        ref = extend_general(psi, 3)
        ref_hat = ref.hat_field(u)
        want = [ref.field_pullback(z)(u), (ref_hat.fn(z), ref_hat.grad(z)),
                ref.input_pullback(z, True)(u)]
    for (value, grad), (want_value, want_grad) in zip(got, want):
        assert np.array_equal(value, want_value)
        assert (grad is None) == (want_grad is None)
        if want_grad is not None:
            assert np.array_equal(grad, want_grad)


def test_extension_fd_gradient_matches_cutoff_gradient(lin_ctx):
    # inside the collar E(1) == cutoff, so FD of E must match the analytic
    # collar-weight gradient
    one = make_field("constant", 3)
    eu = extend_lipschitz(lin_ctx, one)
    z = np.array([[0.5, 0.15, 0.05], [0.7, -0.2, 0.1]])
    ana = cutoff_cusp_gradient(lin_ctx, z)
    num = central_difference(eu.fn, z, h=1e-7)
    assert np.max(np.abs(ana - num)) <= 1e-5


def _region_samples(psi1_coeff=0.25, exponent=2.0, seed=0):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.2, 0.95, 50)
    pv = psi1_coeff * t ** exponent
    th = rng.uniform(0, 2 * np.pi, 50)
    psi1 = psi1_coeff
    blocks = [
        np.stack([t, 0.6 * pv * np.cos(th), 0.6 * pv * np.sin(th)], axis=1),
        np.stack([t, 1.5 * pv * np.cos(th), 1.5 * pv * np.sin(th)], axis=1),
    ]
    tc = rng.uniform(1.1, 1.9, 50)
    blocks.append(np.stack([tc, 1.5 * psi1 * np.cos(th),
                            1.5 * psi1 * np.sin(th)], axis=1))
    tcap = rng.uniform(2.1, 2.9, 50)
    blocks.append(np.stack([tcap, 0.3 * psi1 * np.cos(th),
                            0.3 * psi1 * np.sin(th)], axis=1))
    blocks.append(np.stack([tcap, 1.5 * psi1 * np.cos(th),
                            1.5 * psi1 * np.sin(th)], axis=1))
    return np.concatenate(blocks)


@pytest.mark.parametrize("name", ["constant", "axial", "radial-sq", "wave",
                                  "tip-power"])
def test_extension_analytic_gradient_all_regions(pow_ctx, name):
    # chain-rule gradient against FD over interior points of every region
    u = make_field(name, 3)
    eu = extend_lipschitz(pow_ctx, u)
    assert eu.grad is not None
    z = _region_samples()
    ana = eu.grad(z)
    num = central_difference(eu.fn, z, h=1e-7)
    scale = np.maximum(np.linalg.norm(ana, axis=1), 1.0)
    assert np.max(np.linalg.norm(ana - num, axis=1) / scale) <= 1e-5


def _straightened_samples(conj, seed=0):
    """Interior points of every extension region, clear of every kink of the hat."""
    rng = np.random.default_rng(seed)
    hat = conj.hat_context.spec.psi
    psi1 = conj.hat_context.spec.psi1
    t = rng.uniform(0.05, 0.95, 200)
    t = t[np.min(np.abs(t[:, None] - hat.vertices[None, :]), axis=1) > 1e-4]
    th = rng.uniform(0.0, 2.0 * np.pi, t.size)
    rings = [(t, frac * hat.value(t)) for frac in (0.6, 1.5)]  # cusp core, collar
    for lo, hi in ((1.1, 1.9), (2.1, 2.9)):  # tube and end cap
        ta = rng.uniform(lo, hi, t.size)
        rings += [(ta, np.full(t.size, frac * psi1)) for frac in (0.6, 1.5)]
    return np.concatenate([np.stack([ta, r * np.cos(th), r * np.sin(th)], axis=1)
                           for ta, r in rings])


@pytest.mark.parametrize("psi", [StepProfile([0.5, 1.0], [0.1, 0.2]),
                                 StepProfile([0.3, 1.0], [0.4, 0.9])],
                         ids=["two-step", "normalized-step"])
@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_straightened_gradient_matches_oracle(psi, name):
    # the second profile has psi(1) = 0.9, so the route rescales radially
    conj = extend_general(psi, 3)
    eu = conj.hat_field(make_field(name, 3))
    z = _straightened_samples(conj)
    ana = eu.grad(z)
    num = central_difference(eu.fn, z, h=1e-7)
    scale = np.maximum(np.linalg.norm(ana, axis=1), 1.0)
    assert np.max(np.linalg.norm(ana - num, axis=1) / scale) <= 1e-6


# the profiles whose straightened route has a slope: a linear profile is its own
# re-profiling and a table's is piecewise linear; psi(1) = 0.9 of the normalized step
# makes the route rescale radially
GUARD_PROFILES = {
    "linear": LinearProfile(0.25),
    "step": StepProfile([0.5, 1.0], [0.1, 0.2]),
    "tabulated": solved_hat_profile(PowerProfile(2.0), np.linspace(0.05, 1.0, 20)),
    "csv": CSV_TABLE,  # loaded from a file by the test
    "normalized-step": StepProfile([0.3, 1.0], [0.4, 0.9]),
}


@pytest.mark.parametrize("kind", sorted(GUARD_PROFILES))
def test_every_library_field_has_gradient_on_both_routes(kind, tmp_path):
    psi = GUARD_PROFILES[kind]
    if isinstance(psi, str):
        psi = load_csv_text(psi, tmp_path)
    z = np.array([[0.5, 0.01, 0.0], [1.5, 0.01, 0.0], [2.5, 0.01, 0.0]])
    for name in sorted(LIBRARY):
        u = make_field(name, 3)
        fields = [extend_general(psi, 3).hat_field(u)]
        if psi.lipschitz_constant is not None:
            fields.append(extend_lipschitz(ExtensionContext(DomainSpec(3, psi)), u))
        for eu in fields:
            assert eu.grad is not None, (kind, name)
            assert np.all(np.isfinite(eu.grad(z))), (kind, name)


@pytest.mark.parametrize("psi", [StepProfile([0.5, 1.0], [0.1, 0.2]),
                                 StepProfile([0.3, 1.0], [0.4, 0.9])],
                         ids=["two-step", "normalized-step"])
def test_straightened_collar_values_do_not_depend_on_batch(psi):
    # the collar reads the hat profile only on cusp points: tube-collar and
    # end-cap points sharing the call must leave E(u) and grad E(u) at tip
    # cusp-collar points bitwise unchanged
    conj = extend_general(psi, 3)
    eu = conj.hat_field(make_field("wave", 3))
    hat = conj.hat_context.spec.psi
    t = np.geomspace(1e-6, 1e-2, 40)
    cusp = np.stack([t, 1.5 * hat.value(t), np.zeros_like(t)], axis=1)
    psi1 = conj.hat_context.spec.psi1
    s = np.linspace(1.1, 2.9, 40)  # tube collar, then end cap inside and over the collar
    others = np.stack([s, np.where(s < 2.0, 1.5, 0.6) * psi1, np.full_like(s, 0.01)], axis=1)
    spec = conj.hat_context.spec
    assert np.all(region_labels(spec, cusp) == ExtRegion.COLLAR)
    assert set(region_labels(spec, others)) == {ExtRegion.COLLAR, ExtRegion.END_CAP}
    batch = np.concatenate([cusp, others])
    assert np.array_equal(eu.fn(cusp), eu.fn(batch)[:t.size])
    assert np.array_equal(eu.grad(cusp), eu.grad(batch)[:t.size])


def _entry_views(u):
    """Every evaluator of the extension operator a point can enter, on both routes."""
    direct = extend_lipschitz(ExtensionContext(POW_SPEC), u)
    conj = extend_general(StepProfile([0.5, 1.0], [0.1, 0.2]), 3)
    hat = conj.hat_field(u)
    return [direct.fn, direct.grad, direct.value_and_grad, hat.fn, hat.grad, hat.value_and_grad]


@pytest.mark.parametrize("bad", [[np.nan, 0.1, 0.0], [0.5, np.nan, 0.0],
                                 [np.inf, 0.0, 0.0], [-np.inf, 0.0, 0.0]],
                         ids=["nan-t", "nan-x", "inf", "-inf"])
def test_non_finite_points_rejected(bad):
    for f in _entry_views(make_field("axial", 3)):
        for z in (np.array(bad), np.array([[0.5, 0.01, 0.0], bad])):
            with pytest.raises(ProfileDomainError, match="not finite"):
                f(z)


@pytest.mark.parametrize("bad", [[np.nan, 0.0, 0.0], [0.5, np.nan, 0.0],
                                 [np.inf, 0.0, 0.0], [-np.inf, 0.0, 0.0]],
                         ids=["nan-t", "nan-x", "inf", "-inf"])
@pytest.mark.parametrize("psi", [PowerProfile(2.0), StepProfile([0.5, 1.0], [0.1, 0.2])],
                         ids=["direct", "straightened"])
def test_pullbacks_reject_non_finite_points(psi, bad, monkeypatch):
    # the direct route read a NaN point as outside the support, value 0
    ext = extend(psi, 3)
    Z = np.array([bad, [0.5, 0.01, 0.0]])
    for pull in (ext.pullback, ext.field_pullback):
        with pytest.raises(ProfileDomainError, match="not finite"):
            pull(Z)
    # one finiteness check per call: the straightened field pullback's is forward_map's
    calls = []
    real = geometry._finite
    monkeypatch.setattr(geometry, "_finite", lambda z: calls.append(1) or real(z))
    for pull in (ext.pullback, ext.field_pullback):
        pull(Z[1:])(make_field("constant", 3))
    assert len(calls) == 2


@pytest.mark.parametrize("bad", [0.5, [0.5, 0.01, 0.0, 0.7, 0.0, 0.0], [0.5, 0.01],
                                 np.full((4, 2), 0.5), np.full((2, 3, 4), 0.5)],
                         ids=["0-d", "6-vector", "2-vector", "(4, 2)", "(2, 3, 4)"])
def test_points_of_wrong_dimension_rejected(bad):
    # a 6-vector must not be read as two points of R^3
    for f in _entry_views(make_field("axial", 3)):
        with pytest.raises(ValueError, match=r"^point has dimension \d, spec has n=3$"):
            f(np.array(bad))


# one Lipschitz profile (direct route) and two steps (straightened route; the
# second has psi(1) = 0.9, so that route also rescales radially)
FUSED_PROFILES = {
    "power": PowerProfile(2.0, 0.25),
    "two-step": StepProfile([0.5, 1.0], [0.1, 0.2]),
    "normalized-step": StepProfile([0.3, 1.0], [0.4, 0.9]),
}


def _mixed_points(spec, count, seed):
    """Points of every ExtRegion: half over the whole box, half over the cusp."""
    rng = np.random.default_rng(seed)
    t = np.concatenate([rng.uniform(-0.5, 3.5, count // 2),
                        rng.uniform(0.0, 1.0, count - count // 2)])
    direction = rng.normal(size=(count, spec.n - 1))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    r = rng.uniform(0.0, 2.5, count) * geometry.collar_radius(spec, t)
    z = np.concatenate([t[:, None], r[:, None] * direction], axis=1)
    assert set(region_labels(spec, z)) == set(ExtRegion)
    return z


@pytest.mark.parametrize("kind", sorted(FUSED_PROFILES))
@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_fused_pass_matches_unfused_evaluators(kind, name):
    # value_and_grad, fn and grad are views of one pass; each must equal the
    # separate value and gradient evaluators bitwise, at every batch shape:
    # helpers.unfused_extension keeps the row-wise broadcast formulas over
    # boolean masks that the push's column-wise, index-set form must match
    psi = FUSED_PROFILES[kind]
    u = make_field(name, 3)
    ext = extend(psi, 3)
    spec = ext.hat_context.spec
    z = _mixed_points(spec, 3000, seed=12)
    ref_input = u
    if ext.frame == "straightened":
        ref_input = unfused_straightened_input(u, psi, 3)
        value, gradient = ext.input_pullback(z, True)(u)
        assert np.array_equal(value, ref_input.fn(z))
        assert np.array_equal(gradient, ref_input.grad(z))
        assert np.array_equal(ext.input_pullback(z)(u)[0], ref_input.fn(z))
    ref, eu = unfused_extension(ext.hat_context, ref_input), ext.hat_field(u)

    label = region_labels(spec, z)
    points = [z[int(np.argmax(label == region))] for region in ExtRegion]
    for batch in [z, z.reshape(30, 100, 3)] + points:
        want_value, want_grad = ref.fn(batch), ref.grad(batch)
        value, gradient = eu.value_and_grad(batch)
        assert type(value) is type(want_value)
        assert np.array_equal(value, want_value)
        assert np.array_equal(gradient, want_grad)
        assert np.array_equal(eu.fn(batch), want_value)
        assert np.array_equal(eu.grad(batch), want_grad)


@pytest.mark.parametrize("kind", ["two-step", "normalized-step"])
@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_hat_field_reads_u_through_the_one_pullback(kind, name):
    # E^(u o T^-1) reads u through the operator's inverse pullback; extending
    # the pulled-back field u o T^-1 as a field of its own gives the same bits
    psi = FUSED_PROFILES[kind]
    ext = extend_general(psi, 3)
    u = make_field(name, 3)
    z = _mixed_points(ext.hat_context.spec, 2000, seed=15)
    got = ext.hat_field(u)
    want = extend_lipschitz(ext.hat_context, unfused_straightened_input(u, psi, 3))
    assert np.array_equal(got.fn(z), want.fn(z))
    assert np.array_equal(got.grad(z), want.grad(z))
    for part, ref in zip(got.value_and_grad(z), want.value_and_grad(z)):
        assert np.array_equal(part, ref)


def test_fused_pass_classifies_and_pulls_back_once_per_batch(monkeypatch):
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    u = make_field("wave", 3)
    conj = extend_general(FUSED_PROFILES["two-step"], 3)
    direct = extend_lipschitz(ExtensionContext(POW_SPEC), u)
    counted(geometry, "classify_extension_region")
    counted(extension, "inverse_map")
    counted(extension, "_inverse_branches")
    counted(transform, "_inverse_branches")  # where inverse_map looks it up
    counted(PowerProfile, "derivative")  # the direct route's profile
    counted(PiecewiseLinearProfile, "derivative")  # the two-step profile's hat
    for eu, spec in ((direct, POW_SPEC), (conj.hat_field(u), conj.hat_context.spec)):
        z = _mixed_points(spec, 2000, seed=13)
        no_cap = z[region_labels(spec, z) != ExtRegion.END_CAP]
        calls.clear()
        eu.value_and_grad(no_cap)
        # R' of every cusp point comes from one slope read
        assert calls["classify_extension_region"] == 1 and calls["derivative"] == 1
        calls.clear()
        eu.value_and_grad(z)  # the end cap's mirror images take one more, off the cusp
        assert calls["classify_extension_region"] == 2 and calls["derivative"] == 1
    calls.clear()
    conj.input_pullback(z, True)(u)
    # one branch split per point serves the inverse map and its partials
    assert calls == {"inverse_map": 1, "_inverse_branches": 1}


def test_value_view_reads_no_gradient():
    def refuse(z):
        raise AssertionError("a value-only evaluation read a gradient")

    u = make_field("wave", 3)
    quiet = ScalarField(u.name, u.fn, refuse, refuse)
    z = _mixed_points(POW_SPEC, 500, seed=14)
    for build in (lambda w: extend_lipschitz(ExtensionContext(POW_SPEC), w),
                  extend_general(FUSED_PROFILES["two-step"], 3).hat_field):
        assert np.array_equal(build(quiet).fn(z), build(u).fn(z))
