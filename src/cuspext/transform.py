"""Global piecewise transform straightening a cusp onto its Lipschitz twin.

The map fixes the cross-section coordinates and moves only the axial
one, branch by branch over the four regions of geometry.BilipRegion.
The branches agree on every shared boundary, so the map is continuous
and each branch inverts in closed form.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import Check
from .geometry import DomainSpec, contains_with_margin
from .lipschitzify import reprofile

# Sampling box covering all four regions after normalization.
BOX_T = (-1.0, 4.0)
BOX_RADIUS = 2.0

ROUND_TRIP_TOL = 1e-9
IMAGE_BAND = 1e-8  # the boundary layer that verify_image leaves unjudged
SEAM_STRETCH_MAX = 100.0  # a branch mismatch makes a straddle stretch grow like 1/delta
SEAM_SPREAD_MAX = 10.0  # largest over smallest stretch


def _axial_forward(spec: DomainSpec, t, r):
    """T's axial coordinate s at 1-d (t, |x|), each branch formula on its own points."""
    wedge, tail, outer = geometry.bilip_branches(spec, t, r)
    psi1 = spec.psi1
    s = t.copy()  # the far-tube identity
    s[wedge] = (t[wedge] + r[wedge]) / (1.0 + psi1)
    s[tail] = (t[tail] + 2.0 * (r[tail] - psi1)) / (1.0 + r[tail] - psi1)
    s[outer] = t[outer] + r[outer] - psi1
    return s


def _axial_partials(spec: DomainSpec, t, r):
    """(ds/dt, ds/d|x|) at 1-d (t, |x|), from _axial_forward's branch split."""
    wedge, tail, outer = geometry.bilip_branches(spec, t, r)
    psi1 = spec.psi1
    d_t, d_r = np.ones(t.shape), np.zeros(t.shape)  # the far-tube identity
    d_t[wedge] = d_r[wedge] = 1.0 / (1.0 + psi1)
    tail_den = 1.0 + r[tail] - psi1
    d_t[tail] = 1.0 / tail_den
    d_r[tail] = (2.0 - t[tail]) / tail_den ** 2
    d_r[outer] = 1.0
    return d_t, d_r


def forward_map(spec: DomainSpec, z):
    """Apply the transform; accepts finite (..., n) arrays, preserves x exactly."""
    t, _, r = geometry.split(geometry._finite(z), spec.n)
    out = np.array(z, dtype=float, copy=True)
    out[..., 0] = _axial_forward(spec, t.reshape(-1), np.reshape(r, -1)).reshape(t.shape)
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
    also needs ``inverse_partials`` split the points once, and skips the
    finite check.
    """
    s, rho, (wedge, tail, tube) = branches or _inverse_branches(spec, geometry._finite(w))
    psi1 = spec.psi1
    out = np.array(w, dtype=float, copy=True)
    t = out[..., 0]
    t[...] = s - rho + psi1  # the outer rest; the other branches overwrite their points
    t[wedge] = (1.0 + psi1) * s[wedge] - rho[wedge]
    t[tail] = s[tail] * (1.0 + rho[tail] - psi1) - 2.0 * (rho[tail] - psi1)
    t[tube] = s[tube]
    return out


def inverse_partials(spec: DomainSpec, w, branches=None):
    """(dt/ds, dt/d|y|) of inverse_map's axial row; its other rows are fixed."""
    s, rho, (wedge, tail, tube) = branches or _inverse_branches(spec, geometry._finite(w))
    psi1 = spec.psi1
    d_s, d_rho = np.ones(s.shape), np.full(s.shape, -1.0)  # the outer rest
    d_s[wedge] = 1.0 + psi1
    d_s[tail] = 1.0 + rho[tail] - psi1
    d_rho[tail] = s[tail] - 2.0
    d_rho[tube] = 0.0
    return d_s, d_rho


def jacobian(spec: DomainSpec, z) -> np.ndarray:
    """Closed-form Jacobian of forward_map, shape (..., n, n).

    Only the axial row differs from the identity, so the determinant is
    ds/dt of the point's BilipRegion.  The |x| direction is taken as
    zero on the axis.
    """
    t, x, r = geometry.split(geometry._finite(z), spec.n)
    d_t, d_r = _axial_partials(spec, t.reshape(-1), np.reshape(r, -1))
    jac = np.array(np.broadcast_to(np.eye(spec.n), t.shape + (spec.n, spec.n)))
    jac[..., 0, 0] = d_t.reshape(t.shape)
    jac[..., 0, 1:] = (d_r.reshape(t.shape) / np.maximum(r, 1e-300))[..., None] * x
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


def sample_box(n: int, count: int, rng: np.random.Generator,
               t_range=BOX_T, radius: float = BOX_RADIUS) -> np.ndarray:
    """Uniform samples from a slab times a ball, axial coordinate first."""
    t = rng.uniform(t_range[0], t_range[1], size=count)
    return geometry.sample_ball(n, t, radius, rng)


def _extremes(blocks) -> tuple[float, float, int]:
    """(min, max, size) over arrays read one at a time; an empty one adds nothing.

    np.min and np.max are exact and, unlike Python's, keep a NaN of any array.
    """
    low, high, size = np.array([(x.min(), x.max(), x.size) for x in blocks if x.size]).T
    return float(np.min(low)), float(np.max(high)), int(size.sum())


def _quotients(spec: DomainSpec, a, b):
    """|T(a) - T(b)| / |a - b| over the pairs of (a, b) more than 1e-12 apart.

    T copies x, so only the axial column of d = a - b is recomputed: |d|
    then has the bits of |forward_map(a) - forward_map(b)|.
    """
    d = a - b
    gap = geometry.row_norm(d)
    keep = gap > 1e-12  # degenerate pairs carry no quotient information
    if not keep.all():
        a, b, d, gap = a[keep], b[keep], d[keep], gap[keep]
    d[:, 0] = (_axial_forward(spec, a[:, 0], geometry.row_norm(a[:, 1:]))
               - _axial_forward(spec, b[:, 0], geometry.row_norm(b[:, 1:])))
    return geometry.row_norm(d) / gap


def distortion_sample(spec: DomainSpec, pair_count: int, rng_seed: int,
                      drawn=None) -> DistortionReport:
    """Difference-quotient and Jacobian extremes over random box pairs.

    The pairs' ends a and b and the probes are drawn whole from one
    generator (a seeded sample takes all its t values, then its
    directions, then its radii) and read in geometry.BLOCK_NODES blocks,
    with the bits of one whole read.  ``drawn``, a caller's (a,
    generator) left by drawing a from a fresh ``default_rng(rng_seed)``,
    stands in for this function's own draw of a.  The Jacobian
    determinant is ds/dt of each probe's branch (see jacobian).
    """
    if pair_count < 1:
        raise ValueError(f"pair_count must be >= 1, got {pair_count}")
    if drawn is None:
        rng = np.random.default_rng(rng_seed)
        a = sample_box(spec.n, pair_count, rng)
    else:
        a, rng = drawn
    b = sample_box(spec.n, pair_count, rng)
    low, high, kept = _extremes(_quotients(spec, a[rows], b[rows])
                                for rows in geometry.blocks(pair_count))
    del a, b  # before the probes are drawn
    probes = sample_box(spec.n, pair_count, rng)
    jac_low, jac_high, _ = _extremes(
        np.abs(_axial_partials(spec, probes[rows, 0], geometry.row_norm(probes[rows, 1:]))[0])
        for rows in geometry.blocks(pair_count))
    return DistortionReport(kept, low, high, jac_low, jac_high)


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


def verify_image(spec: DomainSpec, sample_count: int, rng_seed: int) -> ImageCheckResult:
    """Check the transform maps the domain onto its Lipschitz twin.

    Membership on the twin side evaluates the re-profiled radius
    (``reprofile``), so assertions allow an IMAGE_BAND margin: failures
    are only counted outside a band-width boundary layer.
    """
    hat_spec = DomainSpec(spec.n, reprofile(spec.psi))
    rng = np.random.default_rng(rng_seed)

    z = sample_domain(spec, sample_count, rng)
    ok_fwd = contains_with_margin(hat_spec, forward_map(spec, z), IMAGE_BAND)
    w = sample_domain(hat_spec, sample_count, rng)
    ok_inv = contains_with_margin(spec, inverse_map(spec, w), IMAGE_BAND)

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


def seam_continuity(spec: DomainSpec, per_seam: int, rng_seed: int) -> dict:
    """Worst straddle-pair stretch factor per seam and separation (geometry.SEAM_DELTAS).

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
                                      per_seam, rng_seed)
    return {seam: {d: jump / d for d, jump in per.items()} for seam, per in jumps.items()}


def verify_transform(spec: DomainSpec, rng_seed: int, round_trip_samples: int,
                     image_samples: int, distortion_pairs: int, seam_samples: int):
    """The map's round-trip, distortion, seam and image checks: (stretches, distortion, checks).

    Each stage draws from its own ``default_rng(rng_seed)``; at equal
    counts the distortion pairs reuse the round trip's draw instead.
    """
    for name, count in (("round_trip_samples", round_trip_samples),
                        ("image_samples", image_samples), ("distortion_pairs", distortion_pairs),
                        ("seam_samples", seam_samples)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    rng = np.random.default_rng(rng_seed)
    z = sample_box(spec.n, round_trip_samples, rng)
    _, round_err, _ = _extremes(np.abs(inverse_map(spec, forward_map(spec, z[rows])) - z[rows])
                                for rows in geometry.blocks(round_trip_samples))
    drawn = (z, rng) if distortion_pairs == round_trip_samples else None
    del z
    d = distortion_sample(spec, distortion_pairs, rng_seed, drawn)
    del drawn  # before the seam and image stages draw their samples
    seams = seam_continuity(spec, seam_samples, rng_seed)
    stretch = [k for per in seams.values() for k in per.values()]
    top, least = float(np.max(stretch)), float(np.min(stretch))  # both NaN if any is
    image = verify_image(spec, image_samples, rng_seed)
    positive = -float(np.nextafter(0.0, 1.0))  # Check(-x, positive) is 0 < x
    return seams, d, {
        "round_trip_ok": Check(round_err, ROUND_TRIP_TOL),
        "seam_continuity_ok": (Check(top, SEAM_STRETCH_MAX),
                               Check(top / max(least, 1e-300), SEAM_SPREAD_MAX)),
        "image_ok": image,
        "distortion_finite_ok": (Check(-d.min_ratio, positive), Check(d.min_ratio, d.max_ratio),
                                 Check(d.max_ratio, sys.float_info.max),
                                 Check(-d.min_jacobian, positive)),
    }
