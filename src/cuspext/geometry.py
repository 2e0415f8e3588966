"""Outward cuspidal domain geometry: membership and region classification.

Points are numpy arrays with the axial coordinate first: z[..., 0] = t,
z[..., 1:] = x in R^(n-1).  All classification functions are pure and
vectorized over leading axes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import NotNormalizedError, ProfileDomainError, ProfileFormatError
from .profiles import CuspProfile, StepProfile

# The domain is the cusp {0 < t <= 1, |x| < psi(t)} joined to the tube
# {1 <= t < 2, |x| < psi(1)}; the origin is its only singular boundary point.


@dataclass(frozen=True)
class DomainSpec:
    """Ambient dimension plus the profile that carves the domain."""

    n: int
    psi: CuspProfile

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"ambient dimension must be >= 2, got {self.n}")

    @property
    def psi1(self) -> float:
        return self.psi.value_at_1

    @property
    def normalized(self) -> bool:
        """True when 2*psi(1) < 1, the precondition of the global transform."""
        return 2.0 * self.psi1 < 1.0


class BilipRegion(IntEnum):
    """Pieces of the global transform's four-branch formula."""

    WEDGE = 1      # t + |x| <= 1 + psi(1): compressed along the axis
    CYL_TAIL = 2   # domain tube beyond the wedge; rational stretch in t
    OUTER = 3      # radially outside; sheared by |x| - psi(1)
    FAR_TUBE = 4   # t >= 2, |x| <= psi(1): identity


class ExtRegion(IntEnum):
    """Pieces of the extension-operator geometry."""

    OUTSIDE = 0
    CORE = 1      # closure of the domain: the extension equals the field
    COLLAR = 2    # R < |x| < 2R, 0 < t <= 2, with R = psi(min(t, 1))
    END_CAP = 3   # 2 < t < 3, |x| < 2 psi(1): damped to zero by t = 3


# Points a blocked pass reads at a time (W^{1,p} norms, transform-verify, direction
# draws); on the extend workloads 8,192 read peak RSS within 0.5 MB of this, 32,768 3-5 MB more.
BLOCK_NODES = 16384
# the straddle separations of every seam probe, of the map and of the extension alike
SEAM_DELTAS = (1e-3, 1e-5, 1e-7)


@functools.cache
def gauss_rule(deg: int) -> tuple:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1].

    Built on first use: importing ``numpy.polynomial`` at import time
    would cost every command a few milliseconds and some memory.
    """
    xi, wt = np.polynomial.legendre.leggauss(deg)
    xi.flags.writeable = wt.flags.writeable = False
    return xi, wt


def sorted_union(a, b) -> np.ndarray:
    """The sorted distinct values of a and b, as np.union1d, which imports numpy.ma."""
    cuts = np.sort(np.concatenate((a, b), axis=None))
    keep = np.ones(cuts.shape, dtype=bool)
    np.not_equal(cuts[1:], cuts[:-1], out=keep[1:])
    return cuts[keep]


# numpy reduces fewer than 8 entries left to right and more by pairwise
# blocks, so only below this width does a running column sum reproduce
# the bits of numpy's own vector norm.
_PAIRWISE_WIDTH = 8


def row_norm(x):
    """Euclidean norm over the last axis, bitwise equal to numpy's norm(x, axis=-1).

    Below width 8 it is the square root of a running sum of the squared
    columns, without numpy's reduction machinery, whose set-up dominates
    on short rows.  The squares go into one (..., m) temporary, as in
    numpy's norm: per-column scratch buffers hold no less at once and
    raised peak RSS through allocator layout alone.  Wider rows go to
    numpy's norm, whose pairwise sum groups the squares differently.
    """
    x = np.asarray(x, dtype=float)
    m = x.shape[-1]
    if not 0 < m < _PAIRWISE_WIDTH:
        return np.linalg.norm(x, axis=-1)
    sq = np.square(x)
    acc = sq[..., 0] if m == 1 else sq[..., 0] + sq[..., 1]
    for j in range(2, m):
        acc += sq[..., j]
    return np.sqrt(acc)


def split(z, n: int):
    """Validate a (..., n) point array and return (t, x, |x|)."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != n:
        raise ValueError(f"point has dimension {z.shape[-1]}, spec has n={n}")
    t = z[..., 0]
    x = z[..., 1:]
    return t, x, row_norm(x)


def contains_with_margin(spec: DomainSpec, z, band: float) -> np.ndarray:
    """Membership relaxed by ``band`` in every strict inequality.

    Used to exclude a thin boundary layer from exactness assertions: a
    point that fails this test is genuinely outside, beyond numerical
    doubt.  The radial bound reads the profile at t + band so jump
    profiles stay relaxed across their breakpoints.
    """
    t, _, r = split(z, spec.n)
    psi1 = spec.psi1
    te = np.minimum(t + band, 1.0)  # > 0 on the cusp points: t + band > 0 exactly there
    cusp = (t > -band) & (t <= 1.0 + band)
    in_cusp = np.zeros(t.shape, dtype=bool)
    if np.any(cusp):
        in_cusp[cusp] = r[cusp] < spec.psi.value(te[cusp]) + band
    in_tube = (t >= 1.0 - band) & (t < 2.0 + band) & (r < psi1 + band)
    return in_cusp | in_tube


def _require_normalized(spec: DomainSpec):
    if not spec.normalized:
        raise NotNormalizedError(
            f"2*psi(1) = {2 * spec.psi1} >= 1; run geometry.normalize(spec) first"
        )


def _finite(z):
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ProfileDomainError("point is not finite")
    return z


def bilip_branches(spec: DomainSpec, t, r):
    """Indices of the WEDGE, CYL_TAIL and OUTER points of finite 1-d (t, |x|).

    FAR_TUBE, last in BilipRegion's order as here, is the rest.  Precedence
    on shared closures is WEDGE > CYL_TAIL > FAR_TUBE > OUTER; the branch
    formulas agree there, so the order only fixes determinism.  The tail
    test reads the profile only off the wedge on 0 < t < 2.
    """
    _require_normalized(spec)
    psi1 = spec.psi1
    wedge = r <= 1.0 + psi1 - t
    rest = ~wedge
    band = np.flatnonzero(rest & (t > 0.0) & (t < 2.0))
    tail = band[r[band] < collar_radius(spec, t[band])]
    rest[tail] = False
    rest &= (t < 2.0) | (r > psi1)  # off the far tube t >= 2, |x| <= psi(1)
    # so the outer rest satisfies |x| >= max(psi(1), 1 + psi(1) - t)
    return np.flatnonzero(wedge), tail, np.flatnonzero(rest)


def classify_bilip_region(spec: DomainSpec, z, r=None):
    """Label each point with its branch of the global transform, from ``bilip_branches``.

    A caller that has |x| already (from ``split``) passes it as ``r``.
    A non-finite point raises ProfileDomainError.
    """
    t = _finite(z)[..., 0]
    if r is None:
        r = split(z, spec.n)[2]
    label = np.full(t.size, int(BilipRegion.FAR_TUBE), dtype=np.int64)
    for region, points in zip(BilipRegion, bilip_branches(spec, t.reshape(-1), np.reshape(r, -1))):
        label[points] = region
    if t.ndim == 0:
        return BilipRegion(int(label[0]))
    return label.reshape(t.shape)


def collar_radius(spec: DomainSpec, t, with_slope: bool = False):
    """R(t) = psi(min(t, 1)): the domain's radius, the collar's inner wall.

    The profile sees only the points with 0 < t <= 1, its domain.
    ``with_slope`` returns (R, R'), with R' = 0 off the cusp, from one
    value and one slope read; only a profile with a closed-form slope
    has R'.
    """
    t = np.asarray(t, dtype=float)
    cusp = (t > 0.0) & (t <= 1.0)
    R, dR = np.empty(t.shape), (np.zeros(t.shape) if with_slope else None)
    if np.any(cusp):
        if with_slope:
            R[cusp], dR[cusp] = spec.psi.value(t[cusp]), spec.psi.derivative(t[cusp])
        else:
            R[cusp] = spec.psi.value(t[cusp])
    if not np.all(cusp):
        R[~cusp] = spec.psi1
    return (R, dR) if with_slope else R


def blocks(count: int) -> list[slice]:
    """Slices of range(count), BLOCK_NODES points each (the last may hold fewer)."""
    return [slice(i, i + BLOCK_NODES) for i in range(0, count, BLOCK_NODES)]


def unit_directions(rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """k unit vectors in R^m: one (k, m) normal draw, each row divided by its norm."""
    direction = rng.normal(size=(k, m))
    for rows in blocks(k):
        direction[rows] /= row_norm(direction[rows])[:, None]
    return direction


def sample_ball(n: int, t, radius, rng: np.random.Generator) -> np.ndarray:
    """Points (t, x), x uniform in the ball |x| < radius (one radius, or one per t).

    The unit directions of all points are drawn before their radii;
    seeded samples depend on that order.  Built in place in one (k, n) array.
    """
    out = np.empty((len(t), n))
    out[:, 0] = t
    direction = unit_directions(rng, len(t), n - 1)
    rad = rng.uniform(0.0, 1.0, size=len(t))
    rad **= 1.0 / (n - 1)
    rad *= radius
    np.multiply(rad[:, None], direction, out=out[:, 1:])
    return out


def classify_extension_region(spec: DomainSpec, z, R):
    """Assign each point to one branch of the extension geometry.

    On 0 < t <= 2, with R = psi(min(t, 1)) the collar radius at the
    points (``collar_radius``), which the caller passes: CORE for
    |x| <= R, COLLAR for R < |x| < 2R.  The end cap is 2 < t < 3,
    |x| < 2R = 2 psi(1).  Points on outer collar boundaries fall to
    OUTSIDE, where the extension vanishes anyway.
    """
    t, _, r = split(z, spec.n)
    body = (t > 0.0) & (t <= 2.0)
    label = np.full(t.shape, int(ExtRegion.OUTSIDE), dtype=np.int64)
    label[body & (r <= R)] = ExtRegion.CORE
    label[body & (r > R) & (r < 2.0 * R)] = ExtRegion.COLLAR
    label[(t > 2.0) & (t < 3.0) & (r < 2.0 * R)] = ExtRegion.END_CAP
    return label


def straddle_probe(f, n: int, draws, per_seam: int, seed: int) -> list[dict]:
    """Worst |f(a) - f(b)| over pairs straddling each seam: {seam: {delta: jump}} per value.

    Per delta of SEAM_DELTAS the generator restarts from ``seed`` and
    draws one unit x direction per pair; each ``draw(rng, h)`` then
    returns {seam: (t, |x|, dt, d|x|)} and the pair is base -/+ offset
    along that direction, h = delta / 2.  Every pair is drawn first;
    ``f`` is called once, on all the points stacked (so no value may
    depend on its batch), and returns a list of value arrays over them,
    one report each.  Vector values compare in the 2-norm.
    """
    keys, lower, upper = [], [], []
    for delta in SEAM_DELTAS:
        rng = np.random.default_rng(seed)
        direction = unit_directions(rng, per_seam, n - 1)
        for draw in draws:
            for seam, (t, r, dt, dr) in draw(rng, 0.5 * delta).items():
                base = np.concatenate([t[:, None], r[:, None] * direction], axis=1)
                off = np.concatenate([dt[:, None], dr[:, None] * direction], axis=1)
                keys.append((seam, delta))
                lower.append(base - off)
                upper.append(base + off)
    out = []
    for values in f(np.concatenate(lower + upper)):
        diff = np.subtract(*np.split(np.asarray(values), 2))
        jump = np.abs(diff) if diff.ndim == 1 else row_norm(diff)
        report: dict = {}
        for (seam, delta), worst in zip(keys, jump.reshape(len(keys), per_seam).max(axis=1)):
            report.setdefault(seam, {})[delta] = float(worst)
        out.append(report)
    return out


def normalize(spec: DomainSpec):
    """Rescale the profile radially so 2*psi(1) <= 1/2, with margin.

    Returns (normalized spec, scale factor).  Identity when
    psi(1) <= 1/4 already; otherwise the profile is multiplied by
    1/(4 psi(1)), giving psi(1) = 1/4 exactly.  The factor maps domain
    points via (t, x) -> (t, scale * x).  A psi(1) from 4.5e307 up, where
    4 psi(1) overflows and the factor reads 0, raises ProfileFormatError
    naming psi(1) and the factor; so does a table whose first row would
    underflow to 0 under the factor, naming that row.
    """
    psi1 = spec.psi1
    if psi1 <= 0.25:
        return spec, 1.0
    scale = 1.0 / (4.0 * psi1)
    if not scale > 0.0:
        raise ProfileFormatError(f"profile: psi(1) = {psi1!r} is too large to normalize: "
                                 f"the factor 1/(4 psi(1)) underflows to {scale!r}")
    # the rows ascend, so row 0 is the first to underflow
    if isinstance(spec.psi, StepProfile) and not spec.psi.values[0] * scale > 0.0:
        raise ProfileFormatError(f"profile.values: row 0 = {float(spec.psi.values[0])!r} "
                                 f"underflows to 0.0 under the normalizing factor "
                                 f"1/(4 psi(1)) = {scale!r}")
    return DomainSpec(spec.n, spec.psi.scaled(scale)), scale
