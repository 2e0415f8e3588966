"""Outward cuspidal domain geometry: membership and region classification.

Points are numpy arrays with the axial coordinate first: z[..., 0] = t,
z[..., 1:] = x in R^(n-1).  All classification functions are pure and
vectorized over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import NotNormalizedError
from .profiles import CuspProfile

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
    CORE = 1         # closure of the domain: the extension equals the field
    CUSP_COLLAR = 2  # psi(t) < |x| < 2 psi(t), t <= 1
    TUBE_COLLAR = 3  # psi(1) < |x| < 2 psi(1), 1 < t <= 2
    END_CAP = 4      # 2 < t < 3, |x| < 2 psi(1): damped to zero by t = 3


def split(z, n: int):
    """Validate a (..., n) point array and return (t, x, |x|)."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != n:
        raise ValueError(f"point has dimension {z.shape[-1]}, spec has n={n}")
    t = z[..., 0]
    x = z[..., 1:]
    return t, x, np.linalg.norm(x, axis=-1)


def contains(spec: DomainSpec, z) -> np.ndarray | bool:
    """Strict membership in the open domain."""
    t, _, r = split(z, spec.n)
    scalar = t.ndim == 0
    t, r = np.atleast_1d(t), np.atleast_1d(r)
    psi1 = spec.psi1
    cusp = (t > 0.0) & (t <= 1.0)
    in_cusp = np.zeros(t.shape, dtype=bool)
    if np.any(cusp):
        in_cusp[cusp] = r[cusp] < spec.psi.value(t[cusp])
    in_tube = (t >= 1.0) & (t < 2.0) & (r < psi1)
    out = in_cusp | in_tube
    return bool(out[0]) if scalar else out


def contains_with_margin(spec: DomainSpec, z, band: float) -> np.ndarray | bool:
    """Membership relaxed by ``band`` in every strict inequality.

    Used to exclude a thin boundary layer from exactness assertions: a
    point that fails this test is genuinely outside, beyond numerical
    doubt.  The radial bound reads the profile at t + band so jump
    profiles stay relaxed across their breakpoints.
    """
    t, _, r = split(z, spec.n)
    scalar = t.ndim == 0
    t, r = np.atleast_1d(t), np.atleast_1d(r)
    psi1 = spec.psi1
    te = np.clip(t + band, 1e-300, 1.0)
    cusp = (t > -band) & (t <= 1.0 + band)
    in_cusp = np.zeros(t.shape, dtype=bool)
    if np.any(cusp):
        in_cusp[cusp] = r[cusp] < spec.psi.value(te[cusp]) + band
    in_tube = (t >= 1.0 - band) & (t < 2.0 + band) & (r < psi1 + band)
    out = in_cusp | in_tube
    return bool(out[0]) if scalar else out


def _require_normalized(spec: DomainSpec):
    if not spec.normalized:
        raise NotNormalizedError(
            f"2*psi(1) = {2 * spec.psi1} >= 1; run geometry.normalize(spec) first"
        )


def classify_bilip_region(spec: DomainSpec, z):
    """Assign each point to one branch of the global transform.

    Precedence on shared closures is WEDGE > CYL_TAIL > FAR_TUBE > OUTER;
    the branch formulas agree there, so the order only fixes determinism.
    """
    _require_normalized(spec)
    t, _, r = split(z, spec.n)
    psi1 = spec.psi1
    scalar = t.ndim == 0
    t, r = np.atleast_1d(t), np.atleast_1d(r)
    z_arr = np.asarray(z, dtype=float).reshape(-1, spec.n)

    label = np.zeros(t.shape, dtype=np.int64)
    wedge = r <= 1.0 + psi1 - t
    label[wedge] = BilipRegion.WEDGE
    todo = ~wedge
    if np.any(todo):
        tail = todo & contains(spec, z_arr).reshape(t.shape)
        label[tail] = BilipRegion.CYL_TAIL
        todo &= ~tail
    tube = todo & (t >= 2.0) & (r <= psi1)
    label[tube] = BilipRegion.FAR_TUBE
    todo &= ~tube
    # remaining points satisfy |x| >= max(psi(1), 1 + psi(1) - t)
    label[todo] = BilipRegion.OUTER
    if scalar:
        return BilipRegion(int(label[0]))
    return label


def classify_extension_region(spec: DomainSpec, z):
    """Assign each point to one branch of the extension geometry.

    Precedence: CORE first, then the two collars, then the end cap.
    Points on outer collar boundaries fall to OUTSIDE, where the
    extension vanishes anyway.
    """
    t, _, r = split(z, spec.n)
    psi = spec.psi
    psi1 = spec.psi1
    scalar = t.ndim == 0
    t, r = np.atleast_1d(t), np.atleast_1d(r)

    label = np.full(t.shape, int(ExtRegion.OUTSIDE), dtype=np.int64)
    cusp_band = (t > 0.0) & (t <= 1.0)
    if np.any(cusp_band):
        pv = psi.value(t[cusp_band])
        rc = r[cusp_band]
        sub = np.full(pv.shape, int(ExtRegion.OUTSIDE), dtype=np.int64)
        sub[rc <= pv] = ExtRegion.CORE
        sub[(rc > pv) & (rc < 2.0 * pv)] = ExtRegion.CUSP_COLLAR
        label[cusp_band] = sub
    tube_core = (t >= 1.0) & (t <= 2.0) & (r <= psi1)
    label[tube_core & (label == ExtRegion.OUTSIDE)] = ExtRegion.CORE
    tube_collar = (t > 1.0) & (t <= 2.0) & (r > psi1) & (r < 2.0 * psi1)
    label[tube_collar & (label == ExtRegion.OUTSIDE)] = ExtRegion.TUBE_COLLAR
    cap = (t > 2.0) & (t < 3.0) & (r < 2.0 * psi1)
    label[cap & (label == ExtRegion.OUTSIDE)] = ExtRegion.END_CAP
    if scalar:
        return ExtRegion(int(label[0]))
    return label


def normalize(spec: DomainSpec):
    """Rescale the profile radially so 2*psi(1) <= 1/2, with margin.

    Returns (normalized spec, scale factor).  Identity when
    psi(1) <= 1/4 already; otherwise the profile is multiplied by
    1/(4 psi(1)), giving psi(1) = 1/4 exactly.  The factor maps domain
    points via (t, x) -> (t, scale * x).
    """
    psi1 = spec.psi1
    if psi1 <= 0.25:
        return spec, 1.0
    scale = 1.0 / (4.0 * psi1)
    return DomainSpec(spec.n, spec.psi.scaled(scale)), scale
