"""Test-side helpers the library itself never calls."""

import io
import math
from dataclasses import dataclass

import numpy as np

from cuspext import extension, geometry, transform
from cuspext.errors import ConvergenceError, ProfileDomainError
from cuspext.extension import ExtensionContext, cutoff_cap
from cuspext.fields import ScalarField
from cuspext.geometry import BilipRegion, DomainSpec, ExtRegion
from cuspext.lipschitzify import (
    FIRST_CLOSING_ITER,
    LAST_CLOSING_ITER,
    SOLVE_TOL,
    LipschitzizedProfile,
    _solve_bisect,
    hat_values,
    reprofile,
)
from cuspext.profiles import _T_EPS, StepProfile, save_profile_csv
from cuspext.quadrature import Slab, _weighted_p_sum, build_nodes
from cuspext.transform import DistortionReport, inverse_map, inverse_partials, sample_box


def cutoff_cusp_gradient(ctx: ExtensionContext, z, slope=None) -> np.ndarray:
    """Analytic gradient of the collar cutoff on the cusp part of the collar.

    ``slope`` evaluates psi'(t); defaults to the profile's closed form.
    """
    t, x, r = geometry.split(z, ctx.spec.n)
    if slope is None:
        slope = ctx.spec.psi.derivative
    pv = geometry.collar_radius(ctx.spec, t)
    g = np.zeros(np.shape(z))
    g[..., 0] = r * np.asarray(slope(t)) / pv ** 2
    g[..., 1:] = -x / (pv * np.maximum(r, 1e-300))[..., None]
    return g


@dataclass(frozen=True)
class SupportReport:
    ok: bool
    max_abs_outside: float
    samples: int


def support_check(ctx: ExtensionContext, ext_field: ScalarField,
                  count: int = 5000, rng_seed: int = 0) -> SupportReport:
    """The extension must vanish identically outside the doubled domain."""
    rng = np.random.default_rng(rng_seed)
    z = sample_box(ctx.spec.n, 4 * count, rng, t_range=(-1.0, 4.0), radius=2.0)
    label = geometry.classify_extension_region(ctx.spec, z)
    outside = z[np.asarray(label) == ExtRegion.OUTSIDE][:count]
    vals = np.abs(np.asarray(ext_field.fn(outside)))
    return SupportReport(bool(np.all(vals == 0.0)), float(vals.max()),
                         int(outside.shape[0]))


def profile_to_csv_text(profile: StepProfile) -> str:
    buf = io.StringIO()
    save_profile_csv(profile, buf)
    return buf.getvalue()


# the dyadic staircase: breakpoints 2^-k under values 0.25 * 4^-k, k = 60 ... 0
DYADIC_STAIRCASE = StepProfile(2.0 ** -np.arange(60, -1, -1), 0.25 * 4.0 ** -np.arange(60, -1, -1))


def hat_pair(psi, t_hat: float):
    """(t, r, on_jump) of the boundary pair t + r = c t_hat, with c = 1 + psi(1).

    A linear profile is its own re-profiling and pairs t_hat with itself;
    a source with the bisection view reads the pair from ``_solve_bisect``.
    A table's hat alternates pieces: piece 2i climbs across the jump at the
    break before row i (at t = 0 for row 0), and piece 2i + 1 holds row
    i's value, where t = c t_hat - r.
    """
    t_hat = float(t_hat)
    r, hat = hat_values(psi, t_hat), reprofile(psi)  # hat_values rejects t_hat outside (0, 1]
    if hat is psi:
        return t_hat, r, False
    if isinstance(hat, LipschitzizedProfile):
        t_sol, r_sol, jump = _solve_bisect(psi, np.array([t_hat]), psi.value_at_1)
        return float(t_sol[0]), float(r_sol[0]), bool(jump[0])
    k = int(np.searchsorted(hat.vertices[1:-1], t_hat))
    if k % 2:
        return (1.0 + psi.value_at_1) * t_hat - r, r, False
    return (float(psi.breaks[k // 2 - 1]) if k else 0.0), r, True


def region_tube(t0: float, t1: float, radius: float) -> tuple:
    """A plain cylinder slab (axial interval times a fixed ball)."""
    return (Slab(float(t0), float(t1), lambda t, v=float(radius): np.full_like(t, v)),)


def lp_norm(u: ScalarField, region, p: float, scheme, n: int) -> float:
    """(integral of |u|^p over the region) ** (1/p), non-finite samples raising QuadratureError."""
    Z, W = build_nodes(region, scheme, n)
    return float(_weighted_p_sum(u.fn(Z), W, p, Z) ** (1.0 / p))


# -- the extension as separate value and gradient evaluators -----------------
# The reference the fused ``value_and_grad`` pass must match bitwise: each
# evaluator classifies its own batch, splits the collar again and pulls the
# end cap back on its own, as the library did before the two were fused.


def unfused_straightened_input(u: ScalarField, psi, n: int) -> ScalarField:
    """u pulled into straightened coordinates, value and gradient apart."""
    norm_spec, scale = geometry.normalize(DomainSpec(n, psi))

    def from_hat(w):
        z = inverse_map(norm_spec, w)
        z[..., 1:] /= scale
        return z

    def fn(w):
        return u.fn(from_hat(np.asarray(w, dtype=float)))

    def grad(w):
        w = np.asarray(w, dtype=float)
        g = np.asarray(u.grad(from_hat(w)), dtype=float)
        d_s, d_rho = inverse_partials(norm_spec, w)
        y = w[..., 1:]
        radial = g[..., 0] * d_rho / np.maximum(np.linalg.norm(y, axis=-1), 1e-300)
        out = np.empty_like(g)
        out[..., 0] = g[..., 0] * d_s
        out[..., 1:] = radial[..., None] * y + g[..., 1:] / scale
        return out

    return ScalarField(f"{u.name}~straightened", fn, grad)


def _split_collar(ctx, z):
    t, x, r = geometry.split(z, ctx.spec.n)
    return t, x, r, geometry.collar_radius(ctx.spec, t)


def _reflect_collar(ctx, z):
    _, x, r, R = _split_collar(ctx, z)
    out = np.array(z, dtype=float, copy=True)
    factor = (1.5 * R - 0.5 * r) / np.maximum(r, 1e-300)
    out[..., 1:] = x * factor[..., None]
    return out


def _cutoff_collar(ctx, z):
    _, _, r, R = _split_collar(ctx, z)
    return np.clip(2.0 - r / R, 0.0, 1.0)


def _collar_chain_gradient(ctx, Z, u, slope):
    t, x, r, R = _split_collar(ctx, Z)
    dR = np.zeros(t.shape)
    cusp = (t > 0.0) & (t <= 1.0)
    dR[cusp] = slope(t[cusp])
    rho = 1.5 * R - 0.5 * r
    cut = 2.0 - r / R
    w = np.concatenate([t[:, None], (rho / r)[:, None] * x], axis=1)
    uw = u.fn(w)
    gw = np.asarray(u.grad(w), dtype=float)
    gx_dot_x = np.einsum("ij,ij->i", gw[:, 1:], x)
    out = np.empty_like(Z)
    out[:, 0] = (r * dR / R ** 2) * uw \
        + cut * (gw[:, 0] + 1.5 * dR * gx_dot_x / r)
    radial_term = (-0.5 * r - rho) / r ** 3
    out[:, 1:] = (-(1.0 / (r * R)) * uw + cut * radial_term * gx_dot_x)[:, None] * x \
        + (cut * rho / r)[:, None] * gw[:, 1:]
    return out


def unfused_extension(ctx: ExtensionContext, u: ScalarField) -> ScalarField:
    """extend_lipschitz's field with ``fn`` and ``grad`` evaluated apart."""
    spec = ctx.spec
    slope = spec.psi.derivative

    def batched(inner, cap_value, scalar_value):
        def call(z):
            z = np.asarray(z, dtype=float)
            if not np.all(np.isfinite(z)):
                raise ProfileDomainError("extension point is not finite")
            Z = z.reshape(-1, spec.n)
            out, label = inner(Z)
            cap = label == ExtRegion.END_CAP
            if np.any(cap):
                pulled = extension.end_cap_pullback(Z[cap])
                out[cap] = cap_value(Z[cap], pulled)
            if z.ndim == 1:
                return scalar_value(out[0])
            return out.reshape(z.shape[:-1] + out.shape[1:])

        return call

    def eval_inner(Z):
        label = geometry.classify_extension_region(spec, Z)
        out = np.zeros(Z.shape[0])
        core = label == ExtRegion.CORE
        if np.any(core):
            out[core] = u.fn(Z[core])
        collar = label == ExtRegion.COLLAR
        if np.any(collar):
            out[collar] = _cutoff_collar(ctx, Z[collar]) * u.fn(_reflect_collar(ctx, Z[collar]))
        return out, label

    def cap_value(Z, pulled):
        return cutoff_cap(Z) * eval_inner(pulled)[0]

    def grad_inner(Z):
        label = geometry.classify_extension_region(spec, Z)
        out = np.zeros_like(Z)
        core = label == ExtRegion.CORE
        if np.any(core):
            out[core] = u.grad(Z[core])
        collar = label == ExtRegion.COLLAR
        if np.any(collar):
            out[collar] = _collar_chain_gradient(ctx, Z[collar], u, slope)
        return out, label

    def cap_gradient(Z, pulled):
        val_inner, _ = eval_inner(pulled)
        g_inner, _ = grad_inner(pulled)
        cut = cutoff_cap(Z)
        gcap = cut[:, None] * g_inner
        gcap[:, 0] = -val_inner - cut * g_inner[:, 0]
        return gcap

    return ScalarField(f"extend({u.name})", batched(eval_inner, cap_value, float),
                       batched(grad_inner, cap_gradient, lambda g: g))


# -- the straightening map with every branch formula on every point -----------
# The reference the branch-split transform must match bitwise: a label array
# from mask precedence, every branch formula evaluated on every point and
# one picked per point with np.select, as the library did before it split
# each point into T's branches once.


def select_bilip_labels(spec: DomainSpec, z) -> np.ndarray:
    """classify_bilip_region's int64 labels, always an array of t's shape."""
    geometry._require_normalized(spec)
    t, _, r = geometry.split(z, spec.n)
    psi1 = spec.psi1
    shape = t.shape
    t, r = np.atleast_1d(t), np.atleast_1d(r)
    wedge = r <= 1.0 + psi1 - t
    band = ~wedge & (t > 0.0) & (t < 2.0)
    tail = np.zeros(t.shape, dtype=bool)
    if np.any(band):
        tail[band] = r[band] < geometry.collar_radius(spec, t[band])
    # later writes take precedence
    label = np.full(t.shape, int(BilipRegion.OUTER), dtype=np.int64)
    label[(t >= 2.0) & (r <= psi1)] = BilipRegion.FAR_TUBE
    label[tail] = BilipRegion.CYL_TAIL
    label[wedge] = BilipRegion.WEDGE
    return label.reshape(shape)


def _forward_branches(label):
    return [label == BilipRegion.WEDGE, label == BilipRegion.CYL_TAIL,
            label == BilipRegion.OUTER]


def _select_axial(spec, t, r, label):
    psi1 = spec.psi1
    return np.select(
        _forward_branches(label),
        [(t + r) / (1.0 + psi1), (t + 2.0 * (r - psi1)) / (1.0 + r - psi1), t + r - psi1],
        default=t,
    )


def _select_partials(spec, t, r, label):
    psi1 = spec.psi1
    tail = 1.0 + r - psi1
    branches = _forward_branches(label)
    d_t = np.select(branches, [1.0 / (1.0 + psi1), 1.0 / tail, 1.0], default=1.0)
    d_r = np.select(branches, [1.0 / (1.0 + psi1), (2.0 - t) / tail ** 2, 1.0],
                    default=0.0)
    return d_t, d_r


def select_forward_map(spec: DomainSpec, z) -> np.ndarray:
    t, _, r = geometry.split(z, spec.n)
    out = np.array(z, dtype=float, copy=True)
    out[..., 0] = _select_axial(spec, t, r, select_bilip_labels(spec, z))
    return out


def select_jacobian(spec: DomainSpec, z) -> np.ndarray:
    t, x, r = geometry.split(z, spec.n)
    d_t, d_r = _select_partials(spec, t, r, select_bilip_labels(spec, z))
    jac = np.array(np.broadcast_to(np.eye(spec.n), t.shape + (spec.n, spec.n)))
    jac[..., 0, 0] = d_t
    jac[..., 0, 1:] = (d_r / np.maximum(r, 1e-300))[..., None] * x
    return jac


def select_inverse_map(spec: DomainSpec, w) -> np.ndarray:
    s, rho, branches = transform._inverse_branches(spec, w)
    psi1 = spec.psi1
    out = np.array(w, dtype=float, copy=True)
    out[..., 0] = np.select(
        branches,
        [(1.0 + psi1) * s - rho, s * (1.0 + rho - psi1) - 2.0 * (rho - psi1), s],
        default=s - rho + psi1,
    )
    return out


def select_inverse_partials(spec: DomainSpec, w):
    s, rho, branches = transform._inverse_branches(spec, w)
    psi1 = spec.psi1
    d_s = np.select(branches, [1.0 + psi1, 1.0 + rho - psi1, 1.0], default=1.0)
    d_rho = np.select(branches, [-1.0, s - 2.0, 0.0], default=-1.0)
    return d_s, d_rho


def select_distortion_sample(spec: DomainSpec, pair_count: int,
                             rng_seed: int) -> DistortionReport:
    """distortion_sample from two full forward images; draws via transform.sample_box."""
    rng = np.random.default_rng(rng_seed)
    a = transform.sample_box(spec.n, pair_count, rng)
    b = transform.sample_box(spec.n, pair_count, rng)
    gap = geometry.row_norm(a - b)
    keep = gap > 1e-12
    ratios = geometry.row_norm(select_forward_map(spec, a[keep])
                               - select_forward_map(spec, b[keep])) / gap[keep]
    probes = transform.sample_box(spec.n, pair_count, rng)
    t, _, r = geometry.split(probes, spec.n)
    dets, _ = _select_partials(spec, t, r, select_bilip_labels(spec, probes))
    return DistortionReport(
        sample_count=int(keep.sum()),
        min_ratio=float(ratios.min()),
        max_ratio=float(ratios.max()),
        min_jacobian=float(np.abs(dets).min()),
        max_jacobian=float(np.abs(dets).max()),
    )


# -- the hat solve's one-phase bisection and the mask-only domain check ------
# The references the two-phase bisection and the two-reduction ``_check_t``
# must match bitwise: every halving forms mid = (lo + hi) / 2 and moves
# both ends with a mask, and every domain check builds the full mask.


def mask_check_t(t):
    """The profile argument check as one mask over the whole batch."""
    t = np.asarray(t, dtype=float)
    bad = ~((t > 0.0) & (t <= 1.0 + _T_EPS))  # NaN fails both comparisons
    if np.any(bad):
        first = np.atleast_1d(t)[np.atleast_1d(bad)][0]
        raise ProfileDomainError(f"profile argument outside (0, 1]: {first!r}")
    return t


def _one_phase_psi(psi, t):
    pos = t > 0.0
    if t.size and pos.all():
        return psi.value(t)
    out = np.zeros(t.shape)
    if np.any(pos):
        out[pos] = psi.value(t[pos])
    return out


def _one_phase_g(psi, t):
    return t + _one_phase_psi(psi, t)


def one_phase_solve_bisect(psi, t_hats):
    """The generic hat solve with one bisection loop from halving 1 on."""
    targets = (1.0 + psi.value_at_1) * t_hats
    lo, hi = np.zeros(targets.shape), np.ones(targets.shape)
    lo_flat, hi_flat = lo.reshape(-1), hi.reshape(-1)
    at = np.arange(targets.size)
    lo_l, hi_l, tg_l = lo_flat.copy(), hi_flat.copy(), targets.reshape(-1)
    for k in range(1, LAST_CLOSING_ITER + 1):
        mid = 0.5 * (lo_l + hi_l)
        gm = _one_phase_g(psi, mid)
        if not np.all(np.isfinite(gm)):
            bad = mid[~np.isfinite(gm)][0]
            raise ConvergenceError(f"non-finite profile value near t={bad}",
                                   bracket=(float(bad), float(bad)))
        below = gm <= tg_l
        np.putmask(lo_l, below, mid)
        np.putmask(hi_l, ~below, mid)
        if k >= FIRST_CLOSING_ITER:
            stop = np.nextafter(lo_l, hi_l) >= hi_l
            if stop.any():
                lo_flat[at[stop]], hi_flat[at[stop]] = lo_l[stop], hi_l[stop]
                go = ~stop
                at, lo_l, hi_l, tg_l = at[go], lo_l[go], hi_l[go], tg_l[go]
        if not at.size:
            break
    lo_flat[at], hi_flat[at] = lo_l, hi_l
    psi_lo = _one_phase_psi(psi, lo)
    t_sol = lo.copy()
    on_jump = targets - (lo + psi_lo) > SOLVE_TOL
    t_sol[on_jump & (lo <= 1e-17)] = 0.0
    # r = psi(t) off a jump; target - t on jump gaps and at t = 0
    return t_sol, np.where(on_jump | (lo <= 0.0), targets - t_sol, psi_lo), on_jump


# -- the mechanism inequalities written out per caller -------------------------
# The references the one bound table must match: the table read with every
# bound closed, spelled out, and power_cusp_admissible with E1 and E2 inverted by
# hand into caps on s, as the library did before the table.


def spelled_out_admissible_pq(n, s, p, q):
    """(mechanisms, bound values) of the bound table read closed at fixed (n, s, p, q)."""
    e1_p_min = (1.0 + (n - 1) * s) / n
    e1_q_max = n * p / (1.0 + (n - 1) * s)
    e2_p_min = (1.0 + (n - 1) * s) / (2.0 + (n - 2) * s)
    e2_q_max = (1.0 + (n - 1) * s) * p / (1.0 + (n - 1) * s + (s - 1.0) * p)
    e3_p_min = ((n - 1) ** 2 * s + (n - 1)) / n
    limit_p_min = math.inf if q >= n - 1 else (n - 1) * q / (n - 1 - q)

    mechanisms = []
    if e1_p_min <= p and q <= e1_q_max:
        mechanisms.append("E1")
    if e2_p_min <= p and q <= e2_q_max:
        mechanisms.append("E2")
    if e3_p_min <= p and q <= n - 1:
        mechanisms.append("E3")
    if q < n - 1 and p >= limit_p_min:
        mechanisms.append("LimitCase")
    return tuple(mechanisms), {"e1_p_min": e1_p_min, "e1_q_max": e1_q_max,
                               "e2_p_min": e2_p_min, "e2_q_max": e2_q_max,
                               "e3_p_min": e3_p_min, "limit_p_min": limit_p_min}


def inverted_power_cusp_admissible(n, sigma, p, q):
    """(admissible, mechanisms) of the power cusp, E1 and E2 as caps on s."""
    mechanisms = []
    # E1: both bounds cap s from above; the q bound is the tighter one
    s_q1 = (n * p / q - 1.0) / (n - 1.0)
    if sigma < s_q1:
        mechanisms.append("E1")
    # E2: p bound caps s only when (n-1) - (n-2)p > 0
    coeff = (n - 1.0) - (n - 2.0) * p
    s_p2 = (2.0 * p - 1.0) / coeff if coeff > 0.0 else math.inf
    denom = p * q + (n - 1.0) * (q - p)
    s_q2 = (p * q + p - q) / denom if denom > 0.0 else math.inf
    if sigma < min(s_p2, s_q2):
        mechanisms.append("E2")
    # E3: log-weighted condition holds at s = sigma itself
    if q <= n - 1 and ((n - 1.0) ** 2 * sigma + (n - 1.0)) / n <= p:
        mechanisms.append("E3")
    if q < n - 1 and p >= (n - 1.0) * q / (n - 1.0 - q):
        mechanisms.append("LimitCase")
    return bool(mechanisms), tuple(mechanisms)


def mechanism_frontiers(n, p, q):
    """The sigmas at which a power-cusp mechanism can switch, from the caps on s."""
    coeff = (n - 1.0) - (n - 2.0) * p
    denom = p * q + (n - 1.0) * (q - p)
    caps = [(n * p / q - 1.0) / (n - 1.0),            # E1's q bound
            (n * p - 1.0) / (n - 1.0),                # E1's p bound
            (n * p - (n - 1.0)) / (n - 1.0) ** 2]     # E3's p bound
    if coeff > 0.0:
        caps.append((2.0 * p - 1.0) / coeff)          # E2's p bound
    if denom > 0.0:
        caps.append((p * q + p - q) / denom)          # E2's q bound
    return caps
