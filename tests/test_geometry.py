import numpy as np
import pytest
from helpers import region_labels

from cuspext import geometry
from cuspext.errors import NotNormalizedError
from cuspext.geometry import (
    BilipRegion,
    DomainSpec,
    ExtRegion,
    classify_bilip_region,
    contains_with_margin,
    normalize,
    row_norm,
    sample_ball,
    split,
    unit_directions,
)
from cuspext.profiles import CuspProfile, LinearProfile, PowerProfile, StepProfile


@pytest.fixture
def spec_t2():
    return DomainSpec(3, PowerProfile(2.0))


@pytest.fixture
def spec_norm():
    # psi(1) = 1/4, so the transform's precondition holds with margin
    return DomainSpec(3, PowerProfile(2.0, 0.25))


def test_contains_examples(spec_t2):
    assert bool(contains_with_margin(spec_t2, [0.5, 0.1, 0.0], 0.0)) is True
    assert bool(contains_with_margin(spec_t2, [0.5, 0.25, 0.0], 0.0)) is False  # boundary excluded
    assert bool(contains_with_margin(spec_t2, [1.5, 0.9, 0.0], 0.0)) is True  # tube part
    # the tube is open at t = 2
    assert bool(contains_with_margin(spec_t2, [2.0, 0.0, 0.0], 0.0)) is False
    assert bool(contains_with_margin(spec_t2, [-0.1, 0.0, 0.0], 0.0)) is False
    # below 1e-300 the radius is read at t itself: psi(1e-310) = 2.5e-311 > 0 = |x|
    assert bool(contains_with_margin(DomainSpec(3, LinearProfile(0.25)), [1e-310, 0.0, 0.0],
                                     0.0)) is True


def test_contains_dimension_mismatch(spec_t2):
    with pytest.raises(ValueError, match="dimension"):
        contains_with_margin(spec_t2, [0.5, 0.1], 0.0)


def test_contains_rotation_invariance(spec_t2):
    rng = np.random.default_rng(7)
    t = rng.uniform(0.05, 1.95, size=500)
    x = rng.normal(size=(500, 2)) * 0.4
    z = np.concatenate([t[:, None], x], axis=1)
    theta = rng.uniform(0.0, 2 * np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    zr = z.copy()
    zr[:, 1:] = z[:, 1:] @ rot.T
    assert np.array_equal(contains_with_margin(spec_t2, z, 0.0),
                          contains_with_margin(spec_t2, zr, 0.0))


def test_classify_bilip_examples(spec_norm):
    assert classify_bilip_region(spec_norm, [3.0, 0.1, 0.0]) == BilipRegion.FAR_TUBE
    assert classify_bilip_region(spec_norm, [0.5, 0.1, 0.0]) == BilipRegion.WEDGE
    assert classify_bilip_region(spec_norm, [0.0, 5.0, 0.0]) == BilipRegion.OUTER
    assert classify_bilip_region(spec_norm, [1.8, 0.05, 0.0]) == BilipRegion.CYL_TAIL


def test_classify_requires_normalized(spec_t2):
    with pytest.raises(NotNormalizedError, match="normalize"):
        classify_bilip_region(spec_t2, [0.5, 0.1, 0.0])


def test_classify_partition_covers_box(spec_norm):
    rng = np.random.default_rng(0)
    count = 100_000
    z = np.concatenate([
        rng.uniform(-1.0, 4.0, size=(count, 1)),
        rng.uniform(-2.0, 2.0, size=(count, 2)),
    ], axis=1)
    label = classify_bilip_region(spec_norm, z)
    assert np.all((label >= 1) & (label <= 4))  # no point rejected
    t = z[:, 0]
    r = np.linalg.norm(z[:, 1:], axis=1)
    psi1 = spec_norm.psi1
    # each point satisfies the closed description of its own region
    assert np.all(r[label == BilipRegion.WEDGE]
                  <= 1.0 + psi1 - t[label == BilipRegion.WEDGE])
    tail = label == BilipRegion.CYL_TAIL
    assert np.all(contains_with_margin(spec_norm, z[tail], 0.0))
    tube = label == BilipRegion.FAR_TUBE
    assert np.all((t[tube] >= 2.0) & (r[tube] <= psi1))
    outer = label == BilipRegion.OUTER
    assert np.all(r[outer] >= np.maximum(psi1, 1.0 + psi1 - t[outer]) - 1e-12)


def test_boundary_t_sum_monotone():
    # t + |x| is strictly increasing along the lateral boundary
    for psi in (PowerProfile(2.0), StepProfile([0.3, 0.7, 1.0], [0.05, 0.1, 0.2])):
        t = np.linspace(0.01, 0.99, 200)
        total = t + np.asarray(psi.value(t), dtype=float)
        assert np.all(np.diff(total) > 0.0)


def test_classify_extension_examples():
    spec = DomainSpec(3, LinearProfile(0.25))
    z = [[0.5, 0.2, 0.0], [0.5, 0.05, 0.0], [2.5, 0.3, 0.0], [1.5, 0.3, 0.0], [1.5, 0.1, 0.0],
         [3.5, 0.1, 0.0], [0.5, 0.6, 0.0]]
    assert list(region_labels(spec, z)) == [ExtRegion.COLLAR, ExtRegion.CORE, ExtRegion.END_CAP,
                                            ExtRegion.COLLAR, ExtRegion.CORE, ExtRegion.OUTSIDE,
                                            ExtRegion.OUTSIDE]


def test_classify_extension_covers_doubled_domain():
    spec = DomainSpec(3, PowerProfile(2.0, 0.25))
    rng = np.random.default_rng(1)
    count = 20_000
    t = rng.uniform(1e-3, 3.0 - 1e-9, size=count)
    outer = np.where(t <= 1.0, 2.0 * np.asarray(spec.psi.value(np.minimum(t, 1.0))),
                     2.0 * spec.psi1)
    r = outer * rng.uniform(0.0, 1.0 - 1e-9, size=count)
    theta = rng.uniform(0.0, 2 * np.pi, size=count)
    z = np.stack([t, r * np.cos(theta), r * np.sin(theta)], axis=1)
    label = region_labels(spec, z)
    assert np.all(label != ExtRegion.OUTSIDE)


def test_normalize_examples():
    spec, scale = normalize(DomainSpec(3, PowerProfile(2.0)))  # psi(1) = 1
    assert scale == 0.25
    assert spec.psi1 == 0.25
    assert spec.psi.value(0.5) == 0.0625
    spec2, scale2 = normalize(DomainSpec(3, PowerProfile(2.0, 0.25)))
    assert scale2 == 1.0
    assert spec2.psi1 == 0.25
    assert spec2.normalized


def test_normalize_gains_margin():
    spec, scale = normalize(DomainSpec(3, LinearProfile(0.4)))
    assert spec.psi1 == pytest.approx(0.25)
    assert scale == pytest.approx(1.0 / 1.6)


def test_contains_with_margin_step_jump():
    spec = DomainSpec(3, StepProfile([0.5, 1.0], [0.1, 0.2]))
    # just left of the jump at the higher radius: inside the band only
    z = [0.5 - 1e-12, 0.15, 0.0]
    assert bool(contains_with_margin(spec, z, 0.0)) is False
    assert bool(contains_with_margin(spec, z, 1e-8)) is True
    assert bool(contains_with_margin(spec, [0.5, 0.5, 0.0], 1e-8)) is False


@pytest.mark.parametrize("m", range(1, 13))
def test_row_norm_matches_numpy_bitwise(m):
    # exact below width 8 by the summation order; numpy's own norm above
    rng = np.random.default_rng(m)
    for shape in ((257, m), (5, 7, m)):
        x = rng.normal(size=shape) * rng.uniform(1e-3, 1e3, size=shape)
        assert row_norm(x).tobytes() == np.linalg.norm(x, axis=-1).tobytes()
    # a strided view, as split passes it
    z = rng.normal(size=(100, m + 1))
    assert row_norm(z[:, 1:]).tobytes() == np.linalg.norm(z[:, 1:], axis=-1).tobytes()


def test_row_norm_edge_cases():
    assert row_norm(np.empty((0, 3))).shape == (0,)
    assert row_norm(np.array([3.0, 4.0])) == 5.0  # one point: a scalar
    with np.errstate(over="ignore"):
        big = np.array([[1e200, 1e200], [1e154, 1e154]])
        assert np.array_equal(row_norm(big), np.linalg.norm(big, axis=-1))
        assert np.isinf(row_norm(big)[0])
    bad = np.array([[np.nan, 1.0], [np.inf, np.nan], [1.0, 2.0]])
    got = row_norm(bad)
    assert np.isnan(got[:2]).all() and got[2] == np.linalg.norm([1.0, 2.0])


def _whole_sample_ball(n, t, radius, rng):
    """sample_ball as one whole-array formula: the draw the blocked, in-place one keeps."""
    direction = rng.normal(size=(len(t), n - 1))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    rad = radius * rng.uniform(0.0, 1.0, size=len(t)) ** (1.0 / (n - 1))
    return np.concatenate([t[:, None], rad[:, None] * direction], axis=1)


def test_unit_directions_keeps_the_draw():
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    got = unit_directions(a, 40, 2)
    want = b.normal(size=(40, 2))
    want /= np.linalg.norm(want, axis=1, keepdims=True)
    assert got.tobytes() == want.tobytes()
    assert a.uniform() == b.uniform()  # the stream moved by the same amount

    # across block boundaries, and every sample_ball step (radii last, in place)
    block = geometry.BLOCK_NODES
    for n in (2, 3, 4):
        for k in (0, 1, block - 1, block + 1):
            a, b = np.random.default_rng(k + n), np.random.default_rng(k + n)
            got = unit_directions(a, k, n - 1)
            want = b.normal(size=(k, n - 1))
            want /= np.linalg.norm(want, axis=1, keepdims=True)
            assert got.shape == (k, n - 1) and got.tobytes() == want.tobytes()
            assert a.uniform() == b.uniform()
            t = np.random.default_rng(k).uniform(-1.0, 4.0, size=k)
            for radius in (2.0, 0.1 + t * t):  # one radius, then one per point
                got = sample_ball(n, t, radius, a)
                want = _whole_sample_ball(n, t, radius, b)
                assert got.shape == (k, n) and got.tobytes() == want.tobytes()
                assert a.uniform() == b.uniform()


def _seam_points(spec, rng, k=200):
    """Points on the cone t + |x| = 1 + psi(1), the side |x| = psi(1) and the disk t = 2."""
    psi1 = spec.psi1
    r_cone = rng.uniform(0.0, 2.0, size=k)
    t = np.concatenate([1.0 + psi1 - r_cone, rng.uniform(0.5, 4.0, size=k), np.full(k, 2.0)])
    r = np.concatenate([r_cone, np.full(k, psi1), rng.uniform(0.0, psi1, size=k)])
    return np.stack([t, r, np.zeros(3 * k)], axis=1)


def test_classify_bilip_with_r_matches_without(spec_norm):
    rng = np.random.default_rng(4)
    box = np.concatenate([rng.uniform(-1.0, 4.0, size=(500, 1)),
                          rng.uniform(-2.0, 2.0, size=(500, 2))], axis=1)
    z = np.concatenate([_seam_points(spec_norm, rng), box])
    _, _, r = split(z, spec_norm.n)
    want = classify_bilip_region(spec_norm, z)
    assert want.tobytes() == classify_bilip_region(spec_norm, z, r).tobytes()
    grid = z[:600].reshape(20, 30, 3)
    assert np.array_equal(classify_bilip_region(spec_norm, grid, split(grid, 3)[2]),
                          want[:600].reshape(20, 30))
    point = [1.8, 0.05, 0.0]
    assert (classify_bilip_region(spec_norm, point, split(point, 3)[2])
            is classify_bilip_region(spec_norm, point) is BilipRegion.CYL_TAIL)


class _CountingProfile(CuspProfile):
    """A profile that records every abscissa it is read at."""

    kind = "counting"

    def __init__(self, inner):
        self.inner, self.seen = inner, []

    def value(self, t):
        self.seen.append(np.array(t, dtype=float).reshape(-1))
        return self.inner.value(t)

    def derivative(self, t):
        return self.inner.derivative(t)

    @property
    def value_at_1(self):
        return self.inner.value_at_1

    @property
    def lipschitz_constant(self):
        return self.inner.lipschitz_constant


def test_classify_bilip_reads_profile_off_the_wedge_only():
    psi = _CountingProfile(PowerProfile(2.0, 0.25))
    spec = DomainSpec(3, psi)
    rng = np.random.default_rng(5)
    z = np.concatenate([_seam_points(spec, rng),
                        np.concatenate([rng.uniform(-1.0, 4.0, size=(2000, 1)),
                                        rng.uniform(-1.0, 1.0, size=(2000, 2))], axis=1)])
    label = classify_bilip_region(spec, z)
    t = z[:, 0]
    read = (label != BilipRegion.WEDGE) & (t > 0.0) & (t <= 1.0)
    assert read.any() and (label == BilipRegion.WEDGE).any()
    assert np.array_equal(np.concatenate(psi.seen), t[read])
