"""Behavioral checks on the extension operator: trace, linearity, decay.

These back both the test suite and the CLI's verification commands.
Each check returns a small frozen report; pass/fail thresholds live
with the caller so failure output stays inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .extension import ExtensionContext
from .fields import ScalarField, linear_combination
from .geometry import DomainSpec
from .quadrature import gradient_at
from .transform import sample_domain


@dataclass(frozen=True)
class TraceReport:
    max_abs_error: float
    samples: int
    exact: bool  # bitwise equality held at every sample


def trace_check(ext_field: ScalarField, u: ScalarField, spec: DomainSpec,
                count: int = 10_000, rng_seed: int = 0) -> TraceReport:
    """Extension restricted to the domain must reproduce the field."""
    rng = np.random.default_rng(rng_seed)
    z = sample_domain(spec, count, rng)
    got = np.asarray(ext_field.fn(z), dtype=float)
    want = np.asarray(u.fn(z), dtype=float)
    err = np.abs(got - want)
    return TraceReport(float(err.max()), count, bool(np.all(got == want)))


@dataclass(frozen=True)
class LinearityReport:
    max_abs_error: float
    samples: int


def linearity_check(build, u: ScalarField, v: ScalarField, points: np.ndarray,
                    alpha: float = 0.7, beta: float = -1.3) -> LinearityReport:
    """E(alpha u + beta v) against alpha E(u) + beta E(v) pointwise.

    ``build`` maps a field to its extension field (either route).
    """
    eu = build(u).fn(points)
    ev = build(v).fn(points)
    ew = build(linear_combination(alpha, u, beta, v)).fn(points)
    err = np.abs(ew - (alpha * eu + beta * ev))
    return LinearityReport(float(err.max()), int(points.shape[0]))


@dataclass(frozen=True)
class DecayReport:
    ok: bool
    max_normalized: float  # worst |E| / (cap * delta) over all rays
    rays: int


def boundary_decay_check(ctx: ExtensionContext, ext_field: ScalarField,
                         u: ScalarField, rays: int = 1000,
                         deltas=(1e-2, 1e-3, 1e-4), rng_seed: int = 0,
                         safety: float = 2.0) -> DecayReport:
    """Linear decay of the extension toward the outer boundary.

    Rays step inward from the collar/cap boundary; the admissible
    modulus per ray is the local cut-off slope times a sampled bound on
    |u| (the tip is excluded: the modulus degenerates with the collar
    width there, which is expected, not a defect).
    """
    spec = ctx.spec
    n = spec.n
    psi1 = ctx.psi1
    rng = np.random.default_rng(rng_seed)
    m_u = float(np.abs(np.asarray(u.fn(sample_domain(spec, 4000, rng)))).max())
    m_u = max(m_u, 1e-12)

    per = max(1, rays // 3)
    direction = geometry.unit_directions(rng, per, n - 1)

    worst = 0.0
    total = 0
    for delta in deltas:
        # collar outer wall over the cusp (away from the tip), then the tube
        for t_lo, t_hi in ((0.05, 1.0), (1.0 + 1e-6, 3.0 - 1e-6)):
            t = rng.uniform(t_lo, t_hi, size=per)
            R = geometry.collar_radius(spec, t)
            z = np.concatenate([t[:, None], ((2.0 * R - delta)[:, None]) * direction], axis=1)
            cap = safety * m_u / R
            worst = max(worst, float(np.max(np.abs(ext_field.fn(z)) / (cap * delta))))
        # end disk t = 3
        rad = rng.uniform(0.0, 2.0 * psi1 * 0.98, size=per)
        z = np.concatenate([np.full((per, 1), 3.0 - delta),
                            rad[:, None] * direction], axis=1)
        cap = safety * m_u
        worst = max(worst, float(np.max(np.abs(ext_field.fn(z)) / (cap * delta))))
        total += 3 * per
    return DecayReport(bool(worst <= 1.0), worst, total)


def seam_continuity_check(ctx: ExtensionContext, ext_field: ScalarField,
                          deltas=(1e-3, 1e-5, 1e-7), per_seam: int = 200,
                          rng_seed: int = 0) -> dict:
    """Worst straddle jump per seam and separation: {seam: {delta: jump}}.

    For a continuous extension the jump scales linearly with the
    separation; a branch mismatch leaves an O(1) jump as delta shrinks.
    This check is the designated arbiter for the end-cap pullback.
    """
    spec = ctx.spec
    psi1 = ctx.psi1
    k = per_seam

    def collar(rng, h):
        # radial pairs across the inner and outer walls, cusp then tube
        radial = (np.zeros(k), np.full(k, h))
        t = rng.uniform(0.05, 1.0, size=k)
        pv = np.asarray(spec.psi.value(t), dtype=float)
        tube = rng.uniform(1.0 + 1e-3, 2.0 - 1e-3, size=k)
        return {"cusp-collar-inner": (t, pv, *radial),
                "cusp-collar-outer": (t, 2.0 * pv, *radial),
                "tube-collar-inner": (tube, np.full(k, psi1), *radial),
                "tube-collar-outer": (tube, np.full(k, 2.0 * psi1), *radial)}

    def disks(rng, h):
        # axial pairs across t = 2, t = 3 and t = 1 outside the domain
        axial = (np.full(k, h), np.zeros(k))
        r = rng.uniform(0.05 * psi1, 1.9 * psi1, size=k)
        r_junction = rng.uniform(psi1 * 1.05, 1.95 * psi1, size=k)
        return {"cap-interface": (np.full(k, 2.0), r, *axial),
                "cap-end": (np.full(k, 3.0), r, *axial),
                "profile-junction": (np.full(k, 1.0), r_junction, *axial)}

    return geometry.straddle_probe(ext_field.fn, spec.n, (collar, disks),
                                   deltas, per_seam, rng_seed)


def seam_modulus_cap(ctx: ExtensionContext, u: ScalarField, seed: int) -> float:
    """A priori linear-modulus bound for seam straddles of the extension of u in ctx.

    u is the field ctx's extension reads: on the straightened route the
    hat input u o T^-1, not the original-frame field.
    """
    rng = np.random.default_rng(seed)
    z = sample_domain(ctx.spec, 2000, rng)
    m_u = float(np.max(np.abs(np.asarray(u.fn(z))))) + 1e-9
    with np.errstate(over="ignore"):
        g_u = float(np.max(geometry.row_norm(gradient_at(u, z))))
    lip = ctx.spec.psi.lipschitz_constant or 0.0
    slope = (1.0 + 2.0 * lip) / float(ctx.spec.psi.value(0.05))
    return 4.0 * (slope * m_u + (1.0 + lip) * g_u + 1.0)


def seam_verdict(seam_report: dict, modulus_cap: float) -> tuple[bool, str | None]:
    """Continuity verdict: every jump bounded by modulus_cap * delta."""
    for seam, jumps in seam_report.items():
        for delta, jump in jumps.items():
            if jump > modulus_cap * delta:
                return False, seam
    return True, None
