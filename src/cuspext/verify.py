"""Behavioral checks on the extension operator: trace, linearity, decay, seams.

These back both the test suite and the CLI's verification commands.
Each check takes the operator (``extension.ConjugatedExtension``) and a
list of fields and returns one small frozen report per field, in
order; pass/fail thresholds live with the caller so failure output
stays inspectable.  The probe points depend on the seed alone: each
check draws them all first, stacks its batches, pulls them back once
and pushes every field through that one pullback.  Stacking relies on
batch independence: a value must not depend on which other points share
its batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .extension import ConjugatedExtension
from .fields import ScalarField, linear_combination
from .transform import sample_domain


@dataclass(frozen=True)
class TraceReport:
    max_abs_error: float
    samples: int
    exact: bool  # bitwise equality held at every sample


def trace_check(ext: ConjugatedExtension, fields, count: int = 10_000,
                rng_seed: int = 0) -> list[TraceReport]:
    """E u restricted to the original domain must reproduce u."""
    rng = np.random.default_rng(rng_seed)
    z = sample_domain(ext.spec, count, rng)
    push = ext.field_pullback(z)
    reports = []
    for u in fields:
        got = push(u)[0]
        want = np.asarray(u.fn(z), dtype=float)
        err = np.abs(got - want)
        reports.append(TraceReport(float(err.max()), count, bool(np.all(got == want))))
    return reports


@dataclass(frozen=True)
class LinearityReport:
    max_abs_error: float
    samples: int


def linearity_check(ext: ConjugatedExtension, fields, v: ScalarField, points: np.ndarray,
                    alpha: float = 0.7, beta: float = -1.3) -> list[LinearityReport]:
    """E(alpha u + beta v) against alpha E(u) + beta E(v) at original-frame points, per u."""
    push = ext.field_pullback(points)
    ev = push(v)[0]
    reports = []
    for u in fields:
        eu = push(u)[0]
        ew = push(linear_combination(alpha, u, beta, v))[0]
        err = np.abs(ew - (alpha * eu + beta * ev))
        reports.append(LinearityReport(float(err.max()), int(points.shape[0])))
    return reports


@dataclass(frozen=True)
class DecayReport:
    ok: bool
    max_normalized: float  # worst |E| / (cap * delta) over all rays
    rays: int


def boundary_decay_check(ext: ConjugatedExtension, fields, rays: int = 1000,
                         deltas=(1e-2, 1e-3, 1e-4), rng_seed: int = 0,
                         safety: float = 2.0) -> list[DecayReport]:
    """Linear decay of E^(u o T^-1) toward the outer boundary, in the straightened frame.

    Rays step inward from the collar/cap boundary; the admissible
    modulus per ray is the local cut-off slope times a sampled bound on
    |u o T^-1| (the tip is excluded: the modulus degenerates with the
    collar width there, which is expected, not a defect).
    """
    spec = ext.hat_context.spec
    n = spec.n
    psi1 = spec.psi1
    rng = np.random.default_rng(rng_seed)
    read = ext.input_pullback(sample_domain(spec, 4000, rng))

    per = max(1, rays // 3)
    direction = geometry.unit_directions(rng, per, n - 1)
    points, radius = [], []  # radius: what the cut-off slope divides by
    for delta in deltas:
        # collar outer wall over the cusp (away from the tip), then the tube
        for t_lo, t_hi in ((0.05, 1.0), (1.0 + 1e-6, 3.0 - 1e-6)):
            t = rng.uniform(t_lo, t_hi, size=per)
            R = geometry.collar_radius(spec, t)
            points.append(np.concatenate([t[:, None], ((2.0 * R - delta)[:, None]) * direction],
                                         axis=1))
            radius.append(R)
        # end disk t = 3, whose cut-off has unit slope
        rad = rng.uniform(0.0, 2.0 * psi1 * 0.98, size=per)
        points.append(np.concatenate([np.full((per, 1), 3.0 - delta),
                                      rad[:, None] * direction], axis=1))
        radius.append(np.ones(per))
    radius, delta = np.array(radius), np.repeat(deltas, 3)[:, None]
    push = ext.pullback(np.concatenate(points), False)

    reports = []
    for u in fields:
        m_u = max(float(np.abs(read(u)[0]).max()), 1e-12)
        normalized = np.abs(push(u)[0].reshape(radius.shape)) / (safety * m_u / radius * delta)
        worst = float(max(0.0, *normalized.max(axis=1)))
        reports.append(DecayReport(bool(worst <= 1.0), worst, radius.size))
    return reports


def seam_continuity_check(ext: ConjugatedExtension, fields,
                          deltas=(1e-3, 1e-5, 1e-7), per_seam: int = 200,
                          rng_seed: int = 0) -> list[dict]:
    """Worst straddle jump of E^(u o T^-1) per seam and separation: {seam: {delta: jump}} per u.

    For a continuous extension the jump scales linearly with the
    separation; a branch mismatch leaves an O(1) jump as delta shrinks.
    This check is the designated arbiter for the end-cap pullback.
    """
    spec = ext.hat_context.spec
    psi1 = spec.psi1
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

    def values(Z):
        push = ext.pullback(Z, False)
        return [push(u)[0] for u in fields]

    return geometry.straddle_probe(values, spec.n, (collar, disks), deltas, per_seam, rng_seed)


def seam_modulus_cap(ext: ConjugatedExtension, fields, seed: int) -> list[float]:
    """A priori linear-modulus bound for seam straddles of E^(u o T^-1), per u.

    The bound reads u o T^-1, the field the seam check probes, not the
    original-frame u.
    """
    psi = ext.hat_context.spec.psi
    rng = np.random.default_rng(seed)
    read = ext.input_pullback(sample_domain(ext.hat_context.spec, 2000, rng), True)
    lip = psi.lipschitz_constant or 0.0
    slope = (1.0 + 2.0 * lip) / float(psi.value(0.05))
    caps = []
    for u in fields:
        values, grads = read(u)
        m_u = float(np.max(np.abs(values))) + 1e-9
        with np.errstate(over="ignore"):
            g_u = float(np.max(geometry.row_norm(grads)))
        caps.append(4.0 * (slope * m_u + (1.0 + lip) * g_u + 1.0))
    return caps


def seam_verdict(seam_report: dict, modulus_cap: float) -> tuple[bool, str | None]:
    """Continuity verdict: every jump bounded by modulus_cap * delta.

    A failing verdict names the seam with the largest jump / (modulus_cap * delta).
    """
    failing = [(jump / (modulus_cap * delta), seam) for seam, jumps in seam_report.items()
               for delta, jump in jumps.items() if jump > modulus_cap * delta]
    if not failing:
        return True, None
    return False, max(failing, key=lambda ratio_seam: ratio_seam[0])[1]
