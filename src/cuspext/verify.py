"""Behavioral checks on the extension operator: trace, linearity, decay, seams.

Each check takes the operator (``extension.ConjugatedExtension``) and a
list of fields and returns one ``Check`` record per field, in order, its
bound a constant of this module; verify_extension runs them all for the
CLI.  The probe points depend on the seed alone: each check draws them
all first, stacks its batches, pulls them back once and pushes every
field through that one pullback.  Stacking relies on batch independence:
a value must not depend on which other points share its batch.
"""

from __future__ import annotations

import sys

import numpy as np

from . import geometry, quadrature
from .admissibility import in_limit_region
from .errors import Check
from .extension import ConjugatedExtension
from .fields import ScalarField, linear_combination
from .transform import sample_box, sample_domain

TRACE_TOL = {"direct": 1e-12, "straightened": 1e-8}  # by route; straightened goes via T and back
LINEARITY_TOL = 1e-12
LINEARITY_PROBES = 2000  # points of the slab -0.5 < t < 3.5 times the ball |x| < 0.6
LINEARITY_ALPHA, LINEARITY_BETA = 0.7, -1.3  # the combination alpha u + beta v
DECAY_DELTAS = (1e-2, 1e-3, 1e-4)  # ray steps inward from the outer boundary
DECAY_SAFETY = 2.0  # the admissible decay modulus's factor over the cut-off bound
SEAM_PAIRS = 200  # straddle pairs per seam and separation (geometry.SEAM_DELTAS)
REFINEMENT_DELTA_BOUND = float(np.nextafter(0.05, 0.0))  # refinement_delta < 0.05


def trace_check(ext: ConjugatedExtension, fields, count: int, rng_seed: int) -> list[Check]:
    """Worst |E u - u| on the original domain; 0.0 means bitwise equality at every sample."""
    rng = np.random.default_rng(rng_seed)
    z = sample_domain(ext.spec, count, rng)
    push = ext.field_pullback(z)
    return [Check(float(np.abs(push(u)[0] - np.asarray(u.fn(z), dtype=float)).max()),
                  TRACE_TOL[ext.frame]) for u in fields]


def linearity_check(ext: ConjugatedExtension, fields, v: ScalarField,
                    points: np.ndarray) -> list[Check]:
    """Worst |E(alpha u + beta v) - alpha E(u) - beta E(v)| at original-frame points, per u."""
    alpha, beta = LINEARITY_ALPHA, LINEARITY_BETA
    push = ext.field_pullback(points)
    ev = push(v)[0]
    return [Check(float(np.abs(push(linear_combination(alpha, u, beta, v))[0]
                               - (alpha * push(u)[0] + beta * ev)).max()), LINEARITY_TOL)
            for u in fields]


def boundary_decay_check(ext: ConjugatedExtension, fields, rays: int,
                         rng_seed: int) -> list[Check]:
    """Linear decay of E^(u o T^-1) toward the outer boundary, in the straightened frame.

    Rays step inward from the collar/cap boundary; the admissible
    modulus per ray is the local cut-off slope times a sampled bound on
    |u o T^-1| (the tip is excluded: the modulus degenerates with the
    collar width there, which is expected, not a defect).  Bound 1 on the worst |E| / modulus.
    A cusp ray steps inward by min(delta, R(t)), so it ends in the collar even
    where the collar is narrower than delta; a collar of no width (R(t) = 0, as
    where the profile underflows) has no ray to test, so it raises
    FloatingPointError naming t and R(t).
    """
    spec = ext.hat_context.spec
    n = spec.n
    psi1 = spec.psi1
    rng = np.random.default_rng(rng_seed)
    read = ext.input_pullback(sample_domain(spec, 4000, rng))

    per = max(1, rays // 3)
    direction = geometry.unit_directions(rng, per, n - 1)
    points, fall = [], []  # fall: the cut-off's drop over the step, slope times step
    for delta in DECAY_DELTAS:
        # collar outer wall over the cusp (away from the tip), then the tube
        for t_lo, t_hi in ((0.05, 1.0), (1.0 + 1e-6, 3.0 - 1e-6)):
            t = rng.uniform(t_lo, t_hi, size=per)
            R = geometry.collar_radius(spec, t)
            if not np.all(R > 0.0):
                i = int(np.argmin(R > 0.0))
                raise FloatingPointError(f"decay ray in a collar of no width at "
                                         f"t = {t.item(i)!r}: R(t) = {R.item(i)!r}")
            step = np.minimum(delta, R)
            points.append(np.concatenate([t[:, None], ((2.0 * R - step)[:, None]) * direction],
                                         axis=1))
            fall.append(step / R)
        # end disk t = 3, whose cut-off has unit slope
        rad = rng.uniform(0.0, 2.0 * psi1 * 0.98, size=per)
        points.append(np.concatenate([np.full((per, 1), 3.0 - delta),
                                      rad[:, None] * direction], axis=1))
        fall.append(np.full(per, delta))
    fall = np.array(fall)
    push = ext.pullback(np.concatenate(points), False)

    reports = []
    for u in fields:
        m_u = max(float(np.abs(read(u)[0]).max()), 1e-12)
        normalized = np.abs(push(u)[0].reshape(fall.shape)) / (DECAY_SAFETY * m_u * fall)
        reports.append(Check(float(np.max(normalized, initial=0.0)), 1.0))  # NaN propagates
    return reports


def seam_continuity_check(ext: ConjugatedExtension, fields,
                          rng_seed: int) -> list[tuple[tuple[Check, ...], str | None]]:
    """Continuity of E^(u o T^-1) across every seam, per u: (checks, worst seam).

    One Check per seam and separation bounds seam_jumps' jump by cap * delta
    (seam_modulus_cap, same seed): a branch mismatch leaves an O(1) jump as delta
    shrinks, so this is the arbiter for the end-cap pullback.  The worst seam,
    None if all pass, has the largest failing jump / (cap * delta), NaN first.
    """
    out = []
    for jumps, cap in zip(seam_jumps(ext, fields, rng_seed),
                          seam_modulus_cap(ext, fields, rng_seed)):
        named = [(seam, Check(jump, cap * delta))
                 for seam, per in jumps.items() for delta, jump in per.items()]
        failing = [(c.value / c.bound, seam) for seam, c in named if not c.ok]
        worst = max(failing, key=lambda ratio_seam: (np.isnan(ratio_seam[0]), ratio_seam[0]),
                    default=(0.0, None))[1]
        out.append((tuple(c for _, c in named), worst))
    return out


def seam_jumps(ext: ConjugatedExtension, fields, rng_seed: int) -> list:
    """Worst straddle jump of E^(u o T^-1) per seam and separation: {seam: {delta: jump}} per u."""
    spec = ext.hat_context.spec
    psi1 = spec.psi1
    k = SEAM_PAIRS

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

    return geometry.straddle_probe(values, spec.n, (collar, disks), SEAM_PAIRS, rng_seed)


def seam_modulus_cap(ext: ConjugatedExtension, fields, seed: int) -> list[float]:
    """A priori linear-modulus bound for seam straddles of E^(u o T^-1), per u.

    The bound reads u o T^-1, the field the seam check probes, not the
    original-frame u.  A profile that reads 0 at t = 0.05, or a cap that
    is not finite, would let every straddle pass: that raises
    FloatingPointError instead.
    """
    psi = ext.hat_context.spec.psi
    rng = np.random.default_rng(seed)
    read = ext.input_pullback(sample_domain(ext.hat_context.spec, 2000, rng), True)
    lip = psi.lipschitz_constant
    tip = float(psi.value(0.05))
    slope = (1.0 + 2.0 * lip) / tip if tip > 0.0 else np.inf
    caps = []
    for u in fields:
        values, grads = read(u)
        m_u = float(np.max(np.abs(values))) + 1e-9
        with np.errstate(over="ignore"):
            g_u = float(np.max(geometry.row_norm(grads)))
        caps.append(4.0 * (slope * m_u + (1.0 + lip) * g_u + 1.0))
    if not np.isfinite(caps).all():
        raise FloatingPointError(f"seam modulus cap not finite: psi(0.05) = {tip!r}, "
                                 f"caps {caps}")
    return caps


def ratio_check(n: int, report: quadrature.NormReport) -> tuple[Check, ...]:
    """Empty at a zero denominator, else a finite ratio and, in the limit region, delta < 0.05."""
    if report.zero_denominator:
        return ()
    finite = Check(abs(report.ratio), sys.float_info.max)
    if not in_limit_region(n, report.p, report.q):
        return (finite,)
    delta = np.nan if report.refinement_delta is None else report.refinement_delta
    return finite, Check(delta, REFINEMENT_DELTA_BOUND)


def verify_extension(ext: ConjugatedExtension, fields: dict, pq, scheme, trace_samples: int,
                     decay_rays: int, rng_seed: int):
    """The extend-verify run on ``fields`` ({name: field}): (norm reports, worst seams, checks)."""
    flist = list(fields.values())
    # the norm reports first, so that no probe array is held across them
    norm_reports = quadrature.extension_ratio(flist, ext, [(float(p), float(q)) for p, q in pq],
                                              scheme)
    traces = trace_check(ext, flist, trace_samples, rng_seed)
    # the seams before the decay: a tip that reads 0 is named by seam_modulus_cap
    seams = seam_continuity_check(ext, flist, rng_seed=rng_seed)
    decays = boundary_decay_check(ext, flist, rays=decay_rays, rng_seed=rng_seed)
    checks = {}
    for name, reports, trace, decay, (seam, _) in zip(fields, norm_reports, traces, decays, seams):
        checks.update({f"trace_ok[{name}]": trace, f"decay_ok[{name}]": decay,
                       f"seam_ok[{name}]": seam})
        for (p, q), rep in zip(pq, reports):
            checks[f"ratio_ok[{name},p={p},q={q}]"] = ratio_check(ext.spec.n, rep)
    # linearity across the first and the last fields
    pts = sample_box(ext.spec.n, LINEARITY_PROBES, np.random.default_rng(rng_seed),
                     t_range=(-0.5, 3.5), radius=0.6)
    [checks["linearity_ok"]] = linearity_check(ext, flist[:1], flist[-1], pts)
    return norm_reports, [worst for _, worst in seams], checks
