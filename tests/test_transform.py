import numpy as np
import pytest
from fd_oracle import central_difference
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspext.errors import NotNormalizedError
from cuspext.geometry import BilipRegion, DomainSpec, classify_bilip_region
from cuspext.profiles import LinearProfile, PowerProfile, StepProfile
from cuspext.transform import (
    distortion_sample,
    forward_map,
    inverse_map,
    inverse_partials,
    jacobian,
    sample_box,
    seam_continuity,
    verify_image,
)

SPEC = DomainSpec(3, PowerProfile(2.0, 0.25))  # psi(1) = 1/4


def test_forward_examples():
    # identity tube
    assert np.allclose(forward_map(SPEC, [3.0, 0.1, 0.0]), [3.0, 0.1, 0.0])
    # wedge: (t + |x|) / (1 + psi(1))
    w = forward_map(SPEC, [0.5, 0.1, 0.0])
    assert w[0] == pytest.approx(0.48, abs=1e-15)
    # outer shear: t + |x| - psi(1)
    w = forward_map(SPEC, [0.0, 5.0, 0.0])
    assert w[0] == pytest.approx(4.75, abs=1e-15)


def test_inverse_examples():
    assert inverse_map(SPEC, [0.48, 0.1, 0.0])[0] == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(inverse_map(SPEC, [3.0, 0.1, 0.0]), [3.0, 0.1, 0.0])
    assert inverse_map(SPEC, [4.75, 5.0, 0.0])[0] == pytest.approx(0.0, abs=1e-12)


def test_requires_normalized():
    bad = DomainSpec(3, PowerProfile(2.0))
    with pytest.raises(NotNormalizedError):
        forward_map(bad, [0.5, 0.1, 0.0])
    with pytest.raises(NotNormalizedError):
        inverse_map(bad, [0.5, 0.1, 0.0])


def test_round_trip_bulk():
    rng = np.random.default_rng(5)
    z = sample_box(3, 100_000, rng)
    w = forward_map(SPEC, z)
    back = inverse_map(SPEC, w)
    assert np.max(np.abs(back - z)) <= 1e-9


def test_x_block_preserved_exactly():
    rng = np.random.default_rng(6)
    z = sample_box(3, 1000, rng)
    w = forward_map(SPEC, z)
    assert np.array_equal(w[:, 1:], z[:, 1:])


def test_axial_monotonicity():
    # for fixed x the image's axial coordinate is strictly increasing in t
    for r in (0.05, 0.2, 0.6, 1.5):
        t = np.linspace(-1.0, 4.0, 400)
        z = np.stack([t, np.full_like(t, r), np.zeros_like(t)], axis=1)
        s = forward_map(SPEC, z)[:, 0]
        assert np.all(np.diff(s) > 0.0)


def test_jacobian_far_tube_identity():
    jac = jacobian(SPEC, np.array([3.0, 0.1, 0.0]))
    assert np.array_equal(jac, np.eye(3))


def test_jacobian_outer_entries():
    jac = jacobian(SPEC, np.array([0.0, 5.0, 0.0]))
    assert jac[0, 0] == 1.0
    assert jac[0, 1] == 1.0  # x1 / |x| at (5, 0)


def test_jacobian_wedge_axial_rate():
    jac = jacobian(SPEC, np.array([0.5, 0.1, 0.0]))
    assert jac[0, 0] == pytest.approx(1.0 / 1.25, rel=1e-15)


# one interior point per branch: wedge, cylinder tail, outer, far tube
BRANCH_POINTS = np.array([[0.5, 0.1, 0.05], [1.5, 0.1, -0.08],
                          [0.5, 1.0, 0.3], [3.0, 0.1, 0.05]])


def test_jacobian_matches_oracle_on_every_branch():
    labels = classify_bilip_region(SPEC, BRANCH_POINTS)
    assert sorted(labels) == sorted(int(b) for b in BilipRegion)
    jac = jacobian(SPEC, BRANCH_POINTS)
    num = central_difference(lambda z: forward_map(SPEC, z), BRANCH_POINTS, h=1e-6)
    assert np.max(np.abs(jac - num)) <= 1e-8
    # only the axial row moves, so the determinant is ds/dt
    assert np.allclose(np.linalg.det(jac), jac[:, 0, 0], rtol=1e-14, atol=0.0)


def test_inverse_partials_match_oracle_on_every_branch():
    w = forward_map(SPEC, BRANCH_POINTS)
    d_s, d_rho = inverse_partials(SPEC, w)
    num = central_difference(lambda v: inverse_map(SPEC, v)[..., 0], w, h=1e-6)
    rho = np.linalg.norm(w[:, 1:], axis=1)
    assert np.max(np.abs(d_s - num[:, 0])) <= 1e-8
    assert np.max(np.abs(d_rho[:, None] * w[:, 1:] / rho[:, None] - num[:, 1:])) <= 1e-8


def test_seam_continuity_stable():
    report = seam_continuity(SPEC, deltas=(1e-3, 1e-5, 1e-7), per_seam=200)
    for per_delta in report.values():
        vals = list(per_delta.values())
        assert max(vals) <= 10.0
        assert max(vals) / min(vals) <= 3.0


def test_verify_image_power_cusp():
    res = verify_image(SPEC, 10_000, rng_seed=2)
    assert res.ok, res.counterexample
    assert res.forward_failures == 0 and res.inverse_failures == 0


def test_verify_image_linear_and_step():
    res = verify_image(DomainSpec(3, LinearProfile(0.25)), 5_000, rng_seed=3)
    assert res.ok, res.counterexample
    step = StepProfile([0.5, 1.0], [0.05, 0.2])
    res = verify_image(DomainSpec(3, step), 5_000, rng_seed=4)
    assert res.ok, res.counterexample


def test_distortion_report():
    rep = distortion_sample(SPEC, 20_000, rng_seed=1)
    assert rep.sample_count == 20_000
    assert 0.0 < rep.min_ratio <= rep.max_ratio < np.inf
    assert 0.0 < rep.min_jacobian <= rep.max_jacobian < np.inf
    with pytest.raises(ValueError):
        distortion_sample(SPEC, 0, rng_seed=1)


def test_distortion_stable_across_seeds():
    reps = [distortion_sample(SPEC, 50_000, rng_seed=s) for s in (1, 2, 3)]
    maxima = [r.max_ratio for r in reps]
    minima = [r.min_ratio for r in reps]
    assert (max(maxima) - min(maxima)) / max(maxima) <= 0.10
    assert (max(minima) - min(minima)) / max(minima) <= 0.10


def test_identity_region_ratios_are_one():
    rng = np.random.default_rng(9)
    t = rng.uniform(2.1, 3.9, size=(500, 1))
    x = rng.normal(size=(500, 2))
    x *= 0.9 * SPEC.psi1 / np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(0.0, 1.0, size=(500, 1))
    a = np.concatenate([t, x], axis=1)
    b = a[::-1].copy()
    ratios = (np.linalg.norm(forward_map(SPEC, a) - forward_map(SPEC, b), axis=1)
              / np.linalg.norm(a - b, axis=1))
    assert np.allclose(ratios, 1.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1.0, max_value=4.0),
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_round_trip_property(t, x1, x2):
    z = np.array([t, x1, x2])
    assert np.max(np.abs(inverse_map(SPEC, forward_map(SPEC, z)) - z)) <= 1e-9
