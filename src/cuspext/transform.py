"""Global piecewise transform straightening a cusp onto its Lipschitz twin.

The map fixes the cross-section coordinates and moves only the axial
one, branch by branch over the four regions of geometry.BilipRegion.
The branches agree on every shared boundary, so the map is continuous
and each branch inverts in closed form.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import geometry
from .geometry import BilipRegion, DomainSpec, contains_with_margin
from .lipschitzify import LipschitzizedProfile

# Sampling box covering all four regions after normalization.
BOX_T = (-1.0, 4.0)
BOX_RADIUS = 2.0


def _axial_forward(spec: DomainSpec, t, r, label):
    psi1 = spec.psi1
    return np.select(
        [label == BilipRegion.WEDGE,
         label == BilipRegion.CYL_TAIL,
         label == BilipRegion.OUTER],
        [(t + r) / (1.0 + psi1),
         (t + 2.0 * (r - psi1)) / (1.0 + r - psi1),
         t + r - psi1],
        default=t,
    )


def _axial_partials(spec: DomainSpec, t, r, label):
    """(ds/dt, ds/d|x|) of the forward axial branch each point falls in."""
    psi1 = spec.psi1
    tail = 1.0 + r - psi1
    branches = [label == BilipRegion.WEDGE,
                label == BilipRegion.CYL_TAIL,
                label == BilipRegion.OUTER]
    d_t = np.select(branches, [1.0 / (1.0 + psi1), 1.0 / tail, 1.0], default=1.0)
    d_r = np.select(branches, [1.0 / (1.0 + psi1), (2.0 - t) / tail ** 2, 1.0],
                    default=0.0)
    return d_t, d_r


def forward_map(spec: DomainSpec, z):
    """Apply the transform; accepts (..., n) arrays, preserves x exactly."""
    t, _, r = geometry.split(z, spec.n)
    label = geometry.classify_bilip_region(spec, z, r)
    out = np.array(z, dtype=float, copy=True)
    out[..., 0] = _axial_forward(spec, t, r, np.asarray(label))
    return out


def _inverse_branches(spec: DomainSpec, w):
    """(s, |y|, [wedge, tail, tube] masks) of image points; outer is the rest."""
    geometry._require_normalized(spec)
    s, _, rho = geometry.split(w, spec.n)
    psi1 = spec.psi1
    in_wedge = s <= 1.0
    in_tail = ~in_wedge & (s < 2.0) & (rho < psi1)
    in_tube = ~in_wedge & ~in_tail & (s >= 2.0) & (rho <= psi1)
    return s, rho, [in_wedge, in_tail, in_tube]


def inverse_map(spec: DomainSpec, w, branches=None):
    """Invert branch-wise; image regions mirror the forward precedence.

    ``branches``, the ``_inverse_branches`` of w, lets a caller that
    also needs ``inverse_partials`` split the points once.
    """
    s, rho, branches = branches or _inverse_branches(spec, w)
    psi1 = spec.psi1
    t = np.select(
        branches,
        [(1.0 + psi1) * s - rho,
         s * (1.0 + rho - psi1) - 2.0 * (rho - psi1),
         s],
        default=s - rho + psi1,
    )
    out = np.array(w, dtype=float, copy=True)
    out[..., 0] = t
    return out


def inverse_partials(spec: DomainSpec, w, branches=None):
    """(dt/ds, dt/d|y|) of inverse_map's axial row; its other rows are fixed."""
    s, rho, branches = branches or _inverse_branches(spec, w)
    psi1 = spec.psi1
    d_s = np.select(branches, [1.0 + psi1, 1.0 + rho - psi1, 1.0], default=1.0)
    d_rho = np.select(branches, [-1.0, s - 2.0, 0.0], default=-1.0)
    return d_s, d_rho


def jacobian(spec: DomainSpec, z) -> np.ndarray:
    """Closed-form Jacobian of forward_map, shape (..., n, n).

    Only the axial row differs from the identity, so the determinant is
    ds/dt of the point's BilipRegion.  The |x| direction is taken as
    zero on the axis.
    """
    t, x, r = geometry.split(z, spec.n)
    label = np.asarray(geometry.classify_bilip_region(spec, z, r))
    d_t, d_r = _axial_partials(spec, t, r, label)
    jac = np.array(np.broadcast_to(np.eye(spec.n), t.shape + (spec.n, spec.n)))
    jac[..., 0, 0] = d_t
    jac[..., 0, 1:] = (d_r / np.maximum(r, 1e-300))[..., None] * x
    return jac


@dataclass(frozen=True)
class DistortionReport:
    """Empirical two-sided Lipschitz diagnostics of the transform.

    The bounding constant is existence-only in theory; these numbers
    are Monte Carlo estimates, reported and never asserted against a
    reference value.
    """

    sample_count: int
    min_ratio: float
    max_ratio: float
    min_jacobian: float
    max_jacobian: float

    def to_dict(self):
        return asdict(self)


def sample_box(n: int, count: int, rng: np.random.Generator,
               t_range=BOX_T, radius: float = BOX_RADIUS) -> np.ndarray:
    """Uniform samples from a slab times a ball, axial coordinate first."""
    t = rng.uniform(t_range[0], t_range[1], size=count)
    return geometry.sample_ball(n, t, radius, rng)


def distortion_sample(spec: DomainSpec, pair_count: int, rng_seed: int) -> DistortionReport:
    """Difference-quotient and Jacobian extremes over random box pairs."""
    if pair_count < 1:
        raise ValueError(f"pair_count must be >= 1, got {pair_count}")
    rng = np.random.default_rng(rng_seed)
    a = sample_box(spec.n, pair_count, rng)
    b = sample_box(spec.n, pair_count, rng)
    gap = geometry.row_norm(a - b)
    keep = gap > 1e-12  # degenerate pairs carry no quotient information
    ratios = geometry.row_norm(forward_map(spec, a[keep]) - forward_map(spec, b[keep])) / gap[keep]

    probes = sample_box(spec.n, pair_count, rng)
    t, _, r = geometry.split(probes, spec.n)
    # the Jacobian determinant is ds/dt (see jacobian)
    dets, _ = _axial_partials(spec, t, r, geometry.classify_bilip_region(spec, probes, r))
    return DistortionReport(
        sample_count=int(keep.sum()),
        min_ratio=float(ratios.min()),
        max_ratio=float(ratios.max()),
        min_jacobian=float(np.abs(dets).min()),
        max_jacobian=float(np.abs(dets).max()),
    )


@dataclass(frozen=True)
class ImageCheckResult:
    ok: bool
    forward_failures: int
    inverse_failures: int
    counterexample: tuple | None  # ("forward"|"inverse", point)


def sample_domain(spec: DomainSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random points of the open domain (any distribution suffices here)."""
    t = rng.uniform(1e-6, 2.0 - 1e-12, size=count)
    return geometry.sample_ball(spec.n, t, geometry.collar_radius(spec, t) * (1.0 - 1e-12), rng)


def verify_image(spec: DomainSpec, sample_count: int, rng_seed: int,
                 tol: float = 1e-12, band: float = 1e-8) -> ImageCheckResult:
    """Check the transform maps the domain onto its Lipschitz twin.

    Membership on the twin side evaluates the re-profiled radius with
    the hat solver, so assertions allow a ``band`` margin: failures are
    only counted outside a band-width boundary layer.
    """
    hat = LipschitzizedProfile(spec.psi, tol)
    hat_spec = DomainSpec(spec.n, hat)
    rng = np.random.default_rng(rng_seed)

    z = sample_domain(spec, sample_count, rng)
    ok_fwd = contains_with_margin(hat_spec, forward_map(spec, z), band)
    w = sample_domain(hat_spec, sample_count, rng)
    ok_inv = contains_with_margin(spec, inverse_map(spec, w), band)

    counter = None
    if not np.all(ok_fwd):
        counter = ("forward", tuple(z[int(np.argmin(ok_fwd))]))
    elif not np.all(ok_inv):
        counter = ("inverse", tuple(w[int(np.argmin(ok_inv))]))
    return ImageCheckResult(
        ok=bool(np.all(ok_fwd) and np.all(ok_inv)),
        forward_failures=int((~ok_fwd).sum()),
        inverse_failures=int((~ok_inv).sum()),
        counterexample=counter,
    )


def seam_continuity(spec: DomainSpec, deltas=(1e-3, 1e-5, 1e-7),
                    per_seam: int = 200, rng_seed: int = 0) -> dict:
    """Worst straddle-pair stretch factor per seam and separation.

    A continuous piecewise map keeps the factor bounded and stable as
    the separation shrinks; a branch mismatch shows up as a factor
    exploding like 1/delta.
    """
    psi1 = spec.psi1
    k = per_seam

    def seams(rng, h):
        r_cone = rng.uniform(0.05, 2.0, size=k)
        t_side = rng.uniform(1.0 + 1e-3, 4.0, size=k)
        r_disk = rng.uniform(0.05 * psi1, 0.95 * psi1, size=k)
        diagonal = np.full(k, h / np.sqrt(2.0))
        zero = np.zeros(k)
        hk = np.full(k, h)
        return {
            # t + |x| = 1 + psi(1); normal (1, 1)/sqrt(2) in the (t, r) plane
            "cone": ((1.0 + psi1) - r_cone, r_cone, diagonal, diagonal),
            # |x| = psi(1), t >= 1; radial normal
            "side": (t_side, np.full(k, psi1), zero, hk),
            # t = 2, |x| <= psi(1); axial normal
            "disk": (np.full(k, 2.0), r_disk, hk, zero),
        }

    [jumps] = geometry.straddle_probe(lambda z: [forward_map(spec, z)], spec.n, (seams,),
                                      deltas, per_seam, rng_seed)
    return {seam: {d: jump / d for d, jump in per.items()} for seam, per in jumps.items()}
