import tracemalloc

import numpy as np
import pytest
from fd_oracle import central_difference
from helpers import (
    float_bits,
    fresh_draw_transform,
    select_bilip_labels,
    select_distortion_sample,
    select_forward_map,
    select_inverse_map,
    select_inverse_partials,
    select_jacobian,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspext import cli, geometry, transform
from cuspext.errors import NotNormalizedError, ProfileDomainError
from cuspext.geometry import BilipRegion, DomainSpec, classify_bilip_region, normalize
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
    report = seam_continuity(SPEC, per_seam=200, rng_seed=0)
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


ORACLE_SPECS = {
    "power": SPEC,
    "two-step": DomainSpec(3, StepProfile([0.5, 1.0], [0.1, 0.2])),
    "normalized-step": normalize(DomainSpec(3, StepProfile([0.3, 1.0], [0.3, 0.6])))[0],
}


def _seam_points(spec: DomainSpec) -> np.ndarray:
    """Points on every branch boundary and in every branch, (k, 3)."""
    psi1 = spec.psi1
    rng = np.random.default_rng(7)
    r = np.array([0.0, 0.25 * psi1, psi1, 0.3, 1.0 + psi1, 1.7])
    t = np.array([-0.5, 0.0, 0.3, 1.0, 1.5, 2.0, 2.0 + 1e-12, 3.5])
    cusp_t = np.array([0.2, 0.5, 0.7, 1.0])
    rt = [
        ((1.0 + psi1) - r, r),  # cone t + |x| = 1 + psi(1)
        (np.array([1.0, 1.4, 2.0, 3.0]), np.full(4, psi1)),  # side |x| = psi(1), t >= 1
        (np.full(4, 2.0), np.array([0.0, 0.3, 0.9, 1.0]) * psi1),  # disk t = 2
        (cusp_t, spec.psi.value(cusp_t)),  # the domain's wall |x| = psi(t)
        (np.repeat(t, r.size), np.tile(r, t.size)),  # t <= 0, t >= 2, r = 0 and between
    ]
    t_all = np.concatenate([t for t, _ in rt])
    r_all = np.concatenate([r for _, r in rt])
    on_axis = np.stack([t_all, r_all, np.zeros_like(r_all)], axis=1)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=r_all.size)
    turned = np.stack([t_all, r_all * np.cos(angle), r_all * np.sin(angle)], axis=1)
    return np.concatenate([on_axis, turned, sample_box(3, 400, rng)])


def _batches(points: np.ndarray):
    k = points.shape[0] // 2 * 2
    return [points[0], points, points[:k].reshape(2, k // 2, 3), points[:0]]


def _samefloat_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS.keys())
def test_branch_split_matches_select_oracle_bitwise(spec):
    points = _seam_points(spec)
    labels = select_bilip_labels(spec, points)
    assert set(labels) == {int(b) for b in BilipRegion}
    images = transform.forward_map(spec, points)
    psi1 = spec.psi1
    image_seams = np.array([[1.0, 0.1, 0.0], [2.0, 0.5 * psi1, 0.0], [1.5, psi1, 0.0],
                            [2.5, psi1, 0.0], [0.5, 0.0, 0.0], [3.0, 2.0, 0.0]])
    for z in _batches(points):
        assert _samefloat_bits(transform.forward_map(spec, z), select_forward_map(spec, z))
        assert _samefloat_bits(transform.jacobian(spec, z), select_jacobian(spec, z))
        assert _samefloat_bits(classify_bilip_region(spec, z), select_bilip_labels(spec, z))
        r = geometry.split(z, 3)[2]
        assert _samefloat_bits(classify_bilip_region(spec, z, r), select_bilip_labels(spec, z))
    for w in _batches(np.concatenate([images, image_seams])):
        assert _samefloat_bits(transform.inverse_map(spec, w), select_inverse_map(spec, w))
        for got, want in zip(transform.inverse_partials(spec, w),
                             select_inverse_partials(spec, w)):
            assert _samefloat_bits(got, want)


@pytest.mark.parametrize("spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS.keys())
def test_distortion_sample_matches_select_oracle(spec):
    for seed in (0, 1, 1009):
        assert transform.distortion_sample(spec, 5_000, seed) == \
            select_distortion_sample(spec, 5_000, seed)


def test_distortion_sample_degenerate_pairs_match_oracle(monkeypatch):
    real, drawn = transform.sample_box, []

    def sample_box_with_repeats(n, count, rng, **kwargs):
        z = real(n, count, rng, **kwargs)
        if len(drawn) % 3 == 1:  # b of each (a, b, probes): repeat some rows of a
            z[::7] = drawn[-1][::7]
            z[3::7] = drawn[-1][3::7] + 1e-13
        drawn.append(z)
        return z

    monkeypatch.setattr(transform, "sample_box", sample_box_with_repeats)
    for spec in ORACLE_SPECS.values():
        got = transform.distortion_sample(spec, 700, 1)
        assert got == select_distortion_sample(spec, 700, 1)
        assert got.sample_count == 500


# counts off every tested block size; a block of 4096 holds each whole
BLOCKED_COUNTS = {"round_trip_samples": 2_503, "image_samples": 301, "distortion_pairs": 2_111,
                  "seam_samples": 23}


@pytest.mark.parametrize("spec", [SPEC, ORACLE_SPECS["normalized-step"]],
                         ids=["power", "normalized-step"])
def test_transform_blocks_change_no_bit(spec, monkeypatch):
    def run():
        return float_bits(transform.verify_transform(spec, 1, **BLOCKED_COUNTS))

    whole = run()
    for block in (7, 999, 4096):
        monkeypatch.setattr(geometry, "BLOCK_NODES", block)
        assert run() == whole


@pytest.mark.parametrize("counts", [BLOCKED_COUNTS,
                                    dict(BLOCKED_COUNTS, distortion_pairs=2_503)],
                         ids=["unequal", "equal"])
@pytest.mark.parametrize("spec", [SPEC, ORACLE_SPECS["normalized-step"]],
                         ids=["power", "normalized-step"])
def test_shared_draw_matches_fresh_draws(spec, counts):
    # at equal counts the distortion stage takes the round trip's sample and
    # generator; either way every bit is that of a fresh draw per stage
    for seed in (1, 1009):
        assert float_bits(transform.verify_transform(spec, seed, **counts)) == \
            float_bits(fresh_draw_transform(spec, seed, **counts))


def test_distortion_sample_all_degenerate_first_block(monkeypatch):
    real, drawn = transform.sample_box, []

    def sample_box_repeating_a(n, count, rng, **kwargs):
        z = real(n, count, rng, **kwargs)
        if len(drawn) % 3 == 1:  # b of each (a, b, probes): its first 7 pairs repeat a's
            z[:7] = drawn[-1][:7]
        drawn.append(z)
        return z

    monkeypatch.setattr(transform, "sample_box", sample_box_repeating_a)
    for block in (7, 999, 4096):
        monkeypatch.setattr(geometry, "BLOCK_NODES", block)
        for spec in ORACLE_SPECS.values():
            got = transform.distortion_sample(spec, 2_111, 1)
            assert got == select_distortion_sample(spec, 2_111, 1)
            assert got.sample_count == 2_104


@pytest.mark.parametrize("block", [7, 999, 4096])
def test_nan_in_the_last_block_fails(block, monkeypatch):
    monkeypatch.setattr(geometry, "BLOCK_NODES", block)
    count = BLOCKED_COUNTS["round_trip_samples"]
    last = forward_map(SPEC, sample_box(3, count, np.random.default_rng(1))[-1])
    real_inverse = transform.inverse_map

    def inverse_losing_the_last_point(spec, w, branches=None):
        out = real_inverse(spec, w, branches)
        out[np.all(w == last, axis=-1), 0] = np.nan
        return out

    monkeypatch.setattr(transform, "inverse_map", inverse_losing_the_last_point)
    _, _, checks = transform.verify_transform(SPEC, 1, **BLOCKED_COUNTS)
    assert np.isnan(checks["round_trip_ok"].value) and not checks["round_trip_ok"].ok

    monkeypatch.setattr(transform, "inverse_map", real_inverse)
    pairs = BLOCKED_COUNTS["distortion_pairs"]
    a_last = sample_box(3, pairs, np.random.default_rng(1))[-1]
    real_quotients = transform._quotients

    def quotients_losing_the_last_pair(spec, a, b):
        ratios = real_quotients(spec, a, b)
        if np.array_equal(a[-1], a_last):
            ratios[-1] = np.nan
        return ratios

    monkeypatch.setattr(transform, "_quotients", quotients_losing_the_last_pair)
    _, d, checks = transform.verify_transform(SPEC, 1, **BLOCKED_COUNTS)
    assert np.isnan(d.min_ratio) and np.isnan(d.max_ratio)
    assert not all(check.ok for check in checks["distortion_finite_ok"])


@pytest.mark.parametrize("name", ["round_trip_samples", "image_samples", "distortion_pairs",
                                  "seam_samples"])
def test_verify_transform_rejects_counts_below_one(name):
    for count in (0, -1):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            transform.verify_transform(SPEC, 1, **dict(BLOCKED_COUNTS, **{name: count}))


def test_verify_transform_peak_memory_is_set_by_the_samples():
    # the CLI defaults; S is one (100_000, n) sample.  Held at once while the
    # distortion pairs' b is drawn: a, b's (k, n) array, its t column, its
    # unit directions and its radii (3 S + S / n) and one block's scratch
    options = {k: default for k, (_, default) in cli.SECTIONS["transform-verify"][1].items()}
    assert options["round_trip_samples"] == options["distortion_pairs"] == 100_000
    n = 3
    sample = 100_000 * n * 8
    transform.verify_transform(SPEC, 1, **BLOCKED_COUNTS)  # imports and caches
    tracemalloc.start()
    try:
        transform.verify_transform(SPEC, 1, **options)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * sample, f"peak {peak / 1e6:.1f} MB, bound {4 * sample / 1e6:.1f} MB"


def test_distortion_sample_skips_the_finite_check(monkeypatch):
    calls = []
    monkeypatch.setattr(geometry, "_finite", calls.append)
    transform.distortion_sample(SPEC, 100, 1)
    assert calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 1], ids=["t", "x"])
def test_non_finite_points_are_rejected(bad, column):
    point = np.array([0.5, 0.1, 0.0])
    point[column] = bad
    batch = np.stack([np.array([0.5, 0.1, 0.0]), point, np.array([3.0, 0.0, 0.1])])
    for z in (point, batch):
        for call in (lambda z: transform.forward_map(SPEC, z),
                     lambda z: transform.jacobian(SPEC, z),
                     lambda z: classify_bilip_region(SPEC, z),
                     lambda z: classify_bilip_region(SPEC, z, geometry.split(z, 3)[2]),
                     lambda z: transform.inverse_map(SPEC, z),
                     lambda z: transform.inverse_partials(SPEC, z)):
            with pytest.raises(ProfileDomainError, match="not finite"):
                call(z)
