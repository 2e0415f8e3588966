"""Cusp-graded product quadrature and first-order Sobolev norms.

Regions are unions of axial slabs: on each slab the cross-section is a
ball whose radius varies with t.  Axial panels grade geometrically
toward the cusp tip (a uniform grid provably under-resolves fields
growing like a negative power of t) and are split at every known seam,
so Gauss nodes never straddle a kink of the integrand.  For n = 3 the
angular factor is a uniform circle rule; higher cross-section
dimensions fall back to stratified Monte Carlo.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from . import geometry
from .admissibility import in_limit_region
from .errors import QuadratureError
from .extension import ConjugatedExtension
from .fields import ScalarField
from .geometry import DomainSpec, collar_radius, gauss_rule, row_norm, sample_ball


T_RATIO = 0.5  # graded tip panels: each edge is this share of the next


@dataclass(frozen=True)
class QuadratureScheme:
    """Resolution knobs; ``refined()`` is one uniform doubling step."""

    t_levels: int = 40
    gauss_t: int = 8
    gauss_r: int = 8
    angular: int = 16
    mc_samples: int = 20000

    def __post_init__(self):
        for name in ("t_levels", "gauss_t", "gauss_r", "angular", "mc_samples"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                    and value >= 1):
                raise ValueError(f"{name}: need an integer >= 1, got {value!r}")
        try:
            smallest = T_RATIO ** self.t_levels
        except OverflowError:  # t_levels beyond the float range
            smallest = 0.0
        if not smallest > 0.0:
            raise ValueError(f"t_levels: the smallest graded panel edge "
                             f"{T_RATIO} ** t_levels underflows to 0 at {self.t_levels}")

    def refined(self) -> "QuadratureScheme":
        return replace(self, gauss_t=2 * self.gauss_t, gauss_r=2 * self.gauss_r,
                       angular=2 * self.angular, mc_samples=4 * self.mc_samples)


@dataclass(frozen=True)
class Slab:
    """One axial piece of a region: t in (t0, t1), |x| < radius(t)."""

    t0: float
    t1: float
    radius: Callable[[np.ndarray], np.ndarray]
    radial_breaks: tuple = ()   # callables t -> interior seam radius
    graded: bool = False        # geometric t-panels toward t0 (tip slabs)
    t_breaks: tuple = ()        # axial positions where radius jumps


def region_domain(spec: DomainSpec) -> tuple:
    """The cuspidal domain itself: cusp slab plus unit tube."""
    radius = lambda t: collar_radius(spec, t)
    return (
        Slab(0.0, 1.0, radius, graded=True, t_breaks=tuple(spec.psi.breakpoints())),
        Slab(1.0, 2.0, radius),
    )


def region_extension(spec: DomainSpec) -> tuple:
    """The doubled domain the extension lives on, seams included."""
    inner = lambda t: collar_radius(spec, t)
    outer = lambda t: 2.0 * inner(t)
    return (
        Slab(0.0, 1.0, outer, radial_breaks=(inner,), graded=True,
             t_breaks=tuple(spec.psi.breakpoints())),
        Slab(1.0, 2.0, outer, radial_breaks=(inner,)),
        Slab(2.0, 3.0, outer, radial_breaks=(inner,)),
    )


def _t_panels(slab: Slab, scheme: QuadratureScheme) -> np.ndarray:
    if slab.graded:
        if slab.t0 != 0.0:
            raise ValueError("graded slabs must start at t = 0")
        edges = slab.t1 * T_RATIO ** np.arange(scheme.t_levels, -1, -1)
    else:
        npan = max(1, round(slab.t1 - slab.t0))
        edges = np.linspace(slab.t0, slab.t1, npan + 1)
    if slab.t_breaks:
        edges = np.union1d(edges, [b for b in slab.t_breaks
                                   if edges[0] < b < edges[-1]])
    return edges


def _slab_nodes(slab: Slab, scheme: QuadratureScheme, n: int):
    """Tensor nodes/weights for one slab (n in {2, 3})."""
    xi_t, wt_t = gauss_rule(scheme.gauss_t)
    xi_r, wt_r = gauss_rule(scheme.gauss_r)
    edges = _t_panels(slab, scheme)
    a, b = edges[:-1], edges[1:]
    # t nodes: (panels, gauss_t) -> flat
    tmid, thal = 0.5 * (a + b), 0.5 * (b - a)
    T = (tmid[:, None] + thal[:, None] * xi_t[None, :]).ravel()
    WT = (thal[:, None] * wt_t[None, :]).ravel()

    router = np.asarray(slab.radius(T), dtype=float)
    seams = [np.zeros_like(T)]
    seams += [np.clip(np.asarray(br(T), dtype=float), 0.0, router)
              for br in slab.radial_breaks]
    seams.append(router)
    R_list, WR_list = [], []
    for lo, hi in zip(seams[:-1], seams[1:]):
        mid, hal = 0.5 * (lo + hi), 0.5 * (hi - lo)
        R_list.append(mid[:, None] + hal[:, None] * xi_r[None, :])
        WR_list.append(hal[:, None] * wt_r[None, :])
    R = np.concatenate(R_list, axis=1)          # (nt, NR)
    WR = np.concatenate(WR_list, axis=1) * R ** (n - 2)

    if n == 3:
        theta = 2.0 * np.pi * np.arange(scheme.angular) / scheme.angular
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        wang = np.full(scheme.angular, 2.0 * np.pi / scheme.angular)
    elif n == 2:
        dirs = np.array([[1.0], [-1.0]])
        wang = np.ones(2)
    else:
        raise ValueError("tensor rule only for n in {2, 3}; use the MC path")

    nt, NR = R.shape
    na = dirs.shape[0]
    Z = np.empty((nt, NR, na, n))
    Z[..., 0] = T[:, None, None]
    Z[..., 1:] = R[:, :, None, None] * dirs[None, None, :, :]
    W = WT[:, None, None] * WR[:, :, None] * wang[None, None, :]
    return Z.reshape(-1, n), W.ravel()


def _ball_volume(n_minus_1: int, r) -> np.ndarray:
    k = n_minus_1
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0) * np.asarray(r) ** k


def _slab_nodes_mc(slab: Slab, scheme: QuadratureScheme, n: int,
                   rng: np.random.Generator):
    """Stratified Monte Carlo nodes: per t-panel, uniform ball samples."""
    edges = _t_panels(slab, scheme)
    per_panel = max(8, scheme.mc_samples // max(1, len(edges) - 1))
    Zs, Ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        t = rng.uniform(a, b, size=per_panel)
        router = np.asarray(slab.radius(t), dtype=float)
        Zs.append(sample_ball(n, t, router, rng))
        Ws.append((b - a) * _ball_volume(n - 1, router) / per_panel)
    return np.concatenate(Zs), np.concatenate(Ws)


def build_nodes(region, scheme: QuadratureScheme, n: int):
    """Quadrature nodes and weights for a region."""
    Zs, Ws = [], []
    rng = np.random.default_rng(0)  # the Monte Carlo nodes (n >= 4) of every run are the same
    for slab in region:
        if n <= 3:
            Z, W = _slab_nodes(slab, scheme, n)
        else:
            Z, W = _slab_nodes_mc(slab, scheme, n, rng)
        Zs.append(Z)
        Ws.append(W)
    return np.concatenate(Zs), np.concatenate(Ws)


def _check_finite(values: np.ndarray, Z: np.ndarray):
    # one reduction accepts; the mask below only names the first bad node
    if np.isfinite(values).all():
        return
    i = int(np.argmax(~np.isfinite(values)))
    raise QuadratureError(f"non-finite integrand sample at node {tuple(Z[i])}",
                          node=tuple(Z[i]))


def _weighted_p_sum(vals, W, p, Z) -> float:
    vals = np.asarray(vals, dtype=float)
    _check_finite(vals, Z)
    with np.errstate(over="ignore"):
        powered = np.abs(vals) ** p
    _check_finite(powered, Z)  # |v|^p can overflow even for finite samples
    return float(np.sum(W * powered))


def lp_slice_table(u: ScalarField, region, p: float, scheme: QuadratureScheme,
                   n: int) -> list[dict]:
    """Per-axial-panel contributions to the integral of |u|^p (for plots)."""
    rows = []
    for si, slab in enumerate(region):
        edges = _t_panels(slab, scheme)
        for a, b in zip(edges[:-1], edges[1:]):
            sub = Slab(float(a), float(b), slab.radius, slab.radial_breaks)
            Z, W = build_nodes((sub,), scheme, n)
            rows.append({"slab": si, "t_lo": float(a), "t_hi": float(b),
                         "contribution": _weighted_p_sum(u.fn(Z), W, p, Z)})
    return rows


def gradient_at(u: ScalarField, Z: np.ndarray) -> np.ndarray:
    """Analytic gradient of u at many points; raises when u carries none."""
    if u.grad is None:
        raise ValueError(f"field {u.name!r} carries no closed-form gradient")
    return np.asarray(u.grad(np.asarray(Z, dtype=float)), dtype=float)


def _read_at(Zb):
    """``push(u) -> (u, grad u)`` at the nodes Zb: one ``value_and_grad`` when u has it."""

    def push(u):
        if u.value_and_grad:
            return u.value_and_grad(Zb)
        return u.fn(Zb), gradient_at(u, Zb)

    return push


def _w1p_blocked(fields, Z, W, exponents, pullback=_read_at) -> list[dict]:
    """Per field, {p: (W^{1,p} norm, detail)}, reading the nodes Z one block at a time.

    Per block of geometry.BLOCK_NODES nodes Zb, ``pullback(Zb)`` gives a
    ``push(u) -> (values, gradients)`` that every field goes through (by
    default u read at Zb itself), so no read's working state spans the
    whole node set.  Only each field's values and |grad| are kept, in
    node order, and every reduction runs on a field's full arrays: the
    sums keep the bits of one unblocked read, a non-finite node is named
    as it would be there, and a field's values are checked before its
    gradients.
    """
    k = Z.shape[0]
    vals, mags = np.empty((len(fields), k)), np.empty((len(fields), k))
    for rows in geometry.blocks(k):
        push = pullback(Z[rows])
        for f, u in enumerate(fields):
            vals[f, rows], g = push(u)
            with np.errstate(over="ignore"):
                mags[f, rows] = row_norm(g)
            del g
    out = []
    for v, mag in zip(vals, mags):
        lp = [_weighted_p_sum(v, W, p, Z) ** (1.0 / p) for p in exponents]
        gp = [_weighted_p_sum(mag, W, p, Z) ** (1.0 / p) for p in exponents]
        out.append({p: (float(a + b), {"lp_part": float(a), "gradient_part": float(b),
                                        "nodes": k})
                    for p, a, b in zip(exponents, lp, gp)})
    return out


def w1p_norm(u: ScalarField, region, p: float, scheme: QuadratureScheme,
             n: int, with_detail: bool = False):
    """L^p norm of u plus that of |grad u|, both from ``value_and_grad`` when u has it."""
    if not 1.0 <= p < np.inf:
        raise ValueError(f"p must be in [1, inf), got {p}")
    Z, W = build_nodes(region, scheme, n)
    total, detail = _w1p_blocked([u], Z, W, [p])[0][p]
    return (total, detail) if with_detail else total


@dataclass(frozen=True)
class NormReport:
    """One extension-norm measurement at a (p, q) pair."""

    p: float
    q: float
    norm_u_w1p: float
    norm_eu_w1q: float
    ratio: float | None
    refinement_delta: float | None
    resolution: dict
    frame: str  # "direct" | "straightened"
    zero_denominator: bool = False
    warnings: tuple = ()
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def extension_ratio(fields, ext: ConjugatedExtension, pq,
                    scheme: QuadratureScheme | None = None) -> list[list[NormReport]]:
    """Extension-norm ratios of several fields under ``ext``, with refinement stability estimates.

    One list per field, in order, of one report per (p, q) pair, in
    order.  ``ext`` is the domain's operator (``extension.extend``); the
    straightened route's norm is taken in the straightened frame
    (equivalent up to the straightening map's two-sided Lipschitz
    constant).  The ratio's bound is existential, so the reports assert
    nothing about its size.

    Per resolution the domain and the extension node sets are each built
    once and read in blocks of geometry.BLOCK_NODES nodes.  The operator
    depends on the domain alone, so each block of extension nodes is
    pulled back once (``ConjugatedExtension.pullback``) and every field
    is pushed through that one pullback; a domain block reads each field
    directly.  Each field keeps only its values and |grad u| per node,
    and each is reduced to its norms for every exponent over the whole
    node set at once, so the blocks change no bit of a report.
    """
    if scheme is None:
        scheme = QuadratureScheme()
    fields = list(fields)
    if not fields:
        raise ValueError("need at least one field")
    for p, q in pq:
        if not 1.0 <= q <= p < np.inf:
            raise ValueError(f"need 1 <= q <= p < inf, got p={p}, q={q}")
    n = ext.spec.n
    dom_region = region_domain(ext.spec)
    ext_region = region_extension(ext.hat_context.spec)
    ps, qs = list(dict.fromkeys(p for p, _ in pq)), list(dict.fromkeys(q for _, q in pq))

    def measure(sch):
        """Per field: ({p: (norm u, detail)}, {q: (norm E u, detail)})."""
        Z, W = build_nodes(dom_region, sch, n)
        nu = _w1p_blocked(fields, Z, W, ps)
        del Z, W  # freed before the extension nodes are built
        Z, W = build_nodes(ext_region, sch, n)
        return list(zip(nu, _w1p_blocked(fields, Z, W, qs, ext.pullback)))

    out = []
    for (nu_base, ne_base), (nu_refined, ne_refined) in zip(measure(scheme),
                                                            measure(scheme.refined())):
        reports = []
        for p, q in pq:
            (nu0, du0), (ne0, de0) = nu_base[p], ne_base[q]
            (nu1, du1), (ne1, de1) = nu_refined[p], ne_refined[q]
            warnings = ()
            if not in_limit_region(n, p, q):
                warnings = (f"(p, q) = ({p}, {q}) outside the guaranteed region "
                            f"q < {n - 1}, p >= (n-1)q/(n-1-q); ratio reported unasserted",)
            zero = nu1 <= 0.0
            ratio0 = None if nu0 <= 0.0 else ne0 / nu0
            ratio1 = None if zero else ne1 / nu1
            delta = None
            if ratio0 is not None and ratio1 is not None and ratio1 > 0.0:
                delta = abs(ratio1 - ratio0) / ratio1
            reports.append(NormReport(
                p=float(p), q=float(q), norm_u_w1p=float(nu1), norm_eu_w1q=float(ne1),
                ratio=ratio1, refinement_delta=delta,
                resolution=asdict(scheme), frame=ext.frame, zero_denominator=bool(zero),
                warnings=warnings,
                detail={"base": {"norm_u": nu0, "norm_eu": ne0,
                                 **{f"u_{k}": v for k, v in du0.items()},
                                 **{f"eu_{k}": v for k, v in de0.items()}},
                        "refined": {**{f"u_{k}": v for k, v in du1.items()},
                                    **{f"eu_{k}": v for k, v in de1.items()}}},
            ))
        out.append(reports)
    return out
