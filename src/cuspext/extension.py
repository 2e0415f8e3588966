"""Reflection/cut-off extension of scalar fields off a cuspidal domain.

A field living on the domain is pushed onto a doubled domain.  The
collar psi(min(t, 1)) < |x| < 2 psi(min(t, 1)), 0 < t <= 2, is one
construction over the cusp and the tube alike: each collar point
reflects back inside and the value is damped by an affine cut-off that
vanishes on the outer collar wall, so the extension drops to zero
continuously everywhere except the cusp tip.  A final cylinder segment
(the end cap) reuses the already-extended values through the mirror
pullback (t, x) -> (4 - t, x), damped to zero by t = 3.  The mirror
fixes the t = 2 interface pointwise, which keeps the extension
continuous there for axially-varying fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import geometry
from .errors import ProfileDomainError
from .fields import ScalarField
from .geometry import DomainSpec, ExtRegion
from .lipschitzify import DEFAULT_TOL, LipschitzizedProfile
from .profiles import profile_derivative
from .transform import _inverse_branches, forward_map, inverse_map, inverse_partials


@dataclass(frozen=True)
class ExtensionContext:
    """Frozen geometry for the extension of one domain spec.

    The profile must carry a finite Lipschitz constant: the collar
    reflection distorts by the profile slope, and an unbounded slope
    breaks the construction (re-profile first in that case).
    """

    spec: DomainSpec

    def __post_init__(self):
        if self.spec.psi.lipschitz_constant is None:
            raise ValueError("extension requires a Lipschitz profile; "
                             "build one with lipschitzify first")

    @property
    def psi1(self) -> float:
        return self.spec.psi1


def _split_collar(ctx: ExtensionContext, z, check: bool, R=None):
    """(t, x, |x|, R(t), reflection, cut-off) of collar points, checked against its closure.

    The reflection fixes t and maps the radius r to 1.5 R - 0.5 r, with
    R = psi(min(t, 1)); the cut-off is the affine weight 2 - r/R.  A
    caller that has R(t) already passes it as ``R``.
    """
    t, x, r = geometry.split(z, ctx.spec.n)
    if R is None:
        R = geometry.collar_radius(ctx.spec, t)
    if check:
        bad = (t <= 0.0) | (t > 2.0) | (r < R * (1.0 - 1e-12)) | (r > 2.0 * R * (1.0 + 1e-12))
        if np.any(bad):
            raise ProfileDomainError("point outside the collar closure")
    reflected = np.array(z, dtype=float, copy=True)
    reflected[..., 1:] = x * ((1.5 * R - 0.5 * r) / np.maximum(r, 1e-300))[..., None]
    return t, x, r, R, reflected, np.clip(2.0 - r / R, 0.0, 1.0)


def reflect_collar(ctx: ExtensionContext, z, check: bool = True) -> np.ndarray:
    """Fold the collar back into the domain, fixing |x| = R(t)."""
    return _split_collar(ctx, z, check)[4]


def cutoff_collar(ctx: ExtensionContext, z, check: bool = True) -> np.ndarray:
    """Affine weight: 1 on |x| = R(t), 0 on |x| = 2 R(t)."""
    return _split_collar(ctx, z, check)[5]


def _split_cap(ctx: ExtensionContext, z, check: bool):
    """Axial coordinate of end-cap points, checked against the cap closure."""
    t, _, r = geometry.split(z, ctx.spec.n)
    if check:
        # the cap cylinder shares the collar's doubled opening radius 2 psi(1)
        bad = (t < 2.0) | (t > 3.0) | (r > 2.0 * ctx.psi1 * (1.0 + 1e-12))
        if np.any(bad):
            raise ProfileDomainError("point outside the end cap closure")
    return t


def end_cap_pullback(ctx: ExtensionContext, z, check: bool = True) -> np.ndarray:
    """Mirror the end cap onto the tube: (t, x) -> (4 - t, x)."""
    t = _split_cap(ctx, z, check)
    out = np.array(z, dtype=float, copy=True)
    out[..., 0] = 4.0 - t
    return out


def cutoff_cap(ctx: ExtensionContext, z, check: bool = True) -> np.ndarray:
    """Affine weight: 1 at t = 2, 0 at t = 3."""
    t = _split_cap(ctx, z, check)
    return np.clip(3.0 - t, 0.0, 1.0)


def _pullback(ctx: ExtensionContext, Z, with_grad: bool, inner=None):
    """E's field-independent half at (k, n) points Z; returns ``push(read)``.

    Each point reads u at most once: the core at itself, the collar at
    its reflection, the end cap where its mirror image reads (one
    recursive pullback).  ``push(read)`` takes u and grad u (None
    without gradients) at one set of read points at a time from
    ``read(points)``, so no read outlives its use, and returns E u and
    grad E u at Z.  ``inner(w, with_grad) -> (points, chain)`` pulls the
    read points on into u's own frame, where ``chain(uz, gz)`` turns u
    and grad u back into the inner field at w.  The reflection keeps its
    domain check on, so a classification bug surfaces as a domain error
    instead of a silent wrong value.
    """
    spec = ctx.spec
    k, n = Z.shape
    t = Z[:, 0]
    R, dR = geometry.collar_radius(spec, t, True) if with_grad else (
        geometry.collar_radius(spec, t), None)
    label = geometry.classify_extension_region(spec, Z, R)

    def reader(w):
        if inner is None:
            return lambda read: read(w)
        z, chain = inner(w, with_grad)
        return lambda read: chain(*read(z))

    core, collar, cap = (label == ExtRegion.CORE, label == ExtRegion.COLLAR,
                         label == ExtRegion.END_CAP)
    del label
    core_reads = reader(Z[core]) if np.any(core) else None
    collar_reads = cap_push = None
    if np.any(collar):
        _, x, r, R, reflected, cut = _split_collar(ctx, Z[collar], True, R[collar])
        x = np.ascontiguousarray(x)  # a view would keep the whole (k, n) copy
        collar_reads = reader(reflected)
        if with_grad:
            dR = dR[collar]
    if np.any(cap):
        cap_push = _pullback(ctx, end_cap_pullback(ctx, Z[cap], check=False), with_grad, inner)
        cap_cut = cutoff_cap(ctx, Z[cap], check=False)

    def push(read):
        val = np.zeros(k)
        grad = np.zeros((k, n)) if with_grad else None
        if core_reads:
            uw, gw = core_reads(read)
            val[core] = uw
            if with_grad:
                grad[core] = gw
            del uw, gw
        if collar_reads:
            uw, gw = collar_reads(read)
            val[collar] = cut * uw
            if with_grad:
                # product and chain rule with rho = 1.5 R - 0.5 r; r > 0 on the
                # collar, and the clip of the cut-off never acts there
                # cutoff gradient: d/dt = r R'/R^2, d/dx = -x/(r R)
                # reflected-point motion: d w_x/dt = 1.5 R' x/r,
                # D w_x/Dx = (rho/r) I + x x^T (-0.5 r - rho)/r^3
                rho = 1.5 * R - 0.5 * r
                gx_dot_x = np.einsum("ij,ij->i", gw[:, 1:], x)
                grad[collar, 0] = (r * dR / R ** 2) * uw \
                    + cut * (gw[:, 0] + 1.5 * dR * gx_dot_x / r)
                radial_term = (-0.5 * r - rho) / r ** 3
                grad[collar, 1:] = (-(1.0 / (r * R)) * uw
                                    + cut * radial_term * gx_dot_x)[:, None] * x \
                    + (cut * rho / r)[:, None] * gw[:, 1:]
            del uw, gw
        if cap_push:
            pv, pg = cap_push(read)
            val[cap] = cap_cut * pv
            if with_grad:
                # d/dz of cutoff_cap(z) * E(4 - t, x): the mirror flips the axial row
                gcap = cap_cut[:, None] * pg
                gcap[:, 0] = -pv - cap_cut * pg[:, 0]
                grad[cap] = gcap
        return val, grad

    return push


def _inverse_pullback(norm_spec: DomainSpec, scale: float):
    """u o T^-1's field-independent half: ``pull(w, with_grad) -> (z, chain)``.

    The straightened points w are split into T's branches once, for the
    map and its partials; u is read at the original-frame points z, and
    ``chain(uz, gz)`` gives u o T^-1 and its gradient at w.
    """

    def pull(w, with_grad):
        branches = _inverse_branches(norm_spec, w)
        z = inverse_map(norm_spec, w, branches)
        z[..., 1:] /= scale
        if not with_grad:
            return z, lambda uz, gz: (uz, None)
        d_s, d_rho = inverse_partials(norm_spec, w, branches)
        # dividing by a unit scale is exact, so z then holds y itself and w can go
        rho, y = np.maximum(branches[1], 1e-300), (z if scale == 1.0 else w)[..., 1:]

        def chain(uz, g):
            # J_inv^T grad u: the inverse maps (s, y) to (t(s, |y|), y / scale)
            radial = g[..., 0] * d_rho / rho
            out = np.empty_like(g)
            out[..., 0] = g[..., 0] * d_s
            out[..., 1:] = radial[..., None] * y + g[..., 1:] / scale
            return uz, out

        return z, chain

    return pull


def _read(u: ScalarField, w, with_grad: bool):
    """u and grad u (None without gradients) at points w."""
    if not with_grad:
        return np.asarray(u.fn(w), dtype=float), None
    uw, gw = u.value_and_grad(w) if u.value_and_grad else (u.fn(w), u.grad(w))
    return np.asarray(uw, dtype=float), np.asarray(gw, dtype=float)


def _field_pullback(ctx: ExtensionContext, inner=None):
    """``pullback(Z) -> push(v)``: E v and grad E v at Z for any field v, Z pulled back once."""

    def pullback(Z):
        push = _pullback(ctx, Z, True, inner)
        return lambda v: push(lambda w: _read(v, w, True))

    return pullback


def extend_lipschitz(ctx: ExtensionContext, u: ScalarField) -> ScalarField:
    """Extend a field off the domain of a Lipschitz profile.

    The evaluator is linear in u by construction and vanishes
    identically outside the doubled domain.  Each view pulls its batch
    back once (``_pullback``) and then reads u once at the
    pulled-back points.  When the field carries an analytic gradient and
    the profile a closed-form slope, the extension carries the
    chain-rule gradient too (it is exact off the seam set, which has
    measure zero), and ``value_and_grad`` returns both from one pass.
    """
    n = ctx.spec.n

    def view(with_grad, pick):
        """Evaluator over (..., n) points; a 1-d point gives a scalar value."""

        def call(z):
            z = np.asarray(z, dtype=float)
            if not np.all(np.isfinite(z)):
                raise ProfileDomainError("extension point is not finite")
            push = _pullback(ctx, z.reshape(-1, n), with_grad)
            val, grad = push(lambda w: _read(u, w, with_grad))
            if z.ndim == 1:
                return pick(float(val[0]), None if grad is None else grad[0])
            return pick(val.reshape(z.shape[:-1]), None if grad is None else grad.reshape(z.shape))

        return call

    grad = value_and_grad = None
    if u.grad is not None and profile_derivative(ctx.spec.psi) is not None:
        grad = view(True, lambda v, g: g)
        value_and_grad = view(True, lambda v, g: (v, g))
    return ScalarField(f"extend({u.name})", view(False, lambda v, g: v), grad, value_and_grad)


@dataclass
class ConjugatedExtension:
    """Extension of a field off an arbitrary-profile domain.

    Built by straightening the domain onto its Lipschitz twin,
    extending there, and pulling back: ``field`` is the extension in
    original coordinates, ``hat_field`` the same object in straightened
    coordinates (where quadrature is cheap and exact), and
    ``hat_input`` the field pulled into straightened coordinates.  On
    the direct route (``frame == "direct"``) the straightened frame is
    the original one: ``field is hat_field`` and ``hat_input is u``.
    ``pullback(Z)`` is the part of ``hat_field``'s evaluation that does
    not depend on the field: it pulls (k, n) straightened points back
    once and returns ``push(v) -> (E v, grad E v)`` at them for any
    field v of the original frame.
    """

    field: ScalarField
    hat_field: ScalarField
    hat_input: ScalarField
    hat_context: ExtensionContext
    scale: float
    frame: str  # "direct" | "straightened"
    pullback: Callable[[np.ndarray], Callable[[ScalarField], tuple]]


def extend_general(u: ScalarField, psi, n: int, tol: float = DEFAULT_TOL) -> ConjugatedExtension:
    """Extend off the domain of an arbitrary cusp profile.

    The restriction to the original domain reproduces u up to the
    round-trip error of the straightening map (below 1e-8 for smooth
    fields at the default tolerance).  When u carries an analytic
    gradient, so do ``hat_input`` and ``hat_field``.
    """
    norm_spec, scale = geometry.normalize(DomainSpec(n, psi))
    hat = LipschitzizedProfile(norm_spec.psi, tol)
    ctx = ExtensionContext(DomainSpec(n, hat))
    inverse = _inverse_pullback(norm_spec, scale)

    def hat_input_fn(w):
        return u.fn(inverse(np.asarray(w, dtype=float), False)[0])

    hat_input_grad = hat_input_value_and_grad = None
    if u.grad is not None:
        def hat_input_value_and_grad(w):
            z, chain = inverse(np.asarray(w, dtype=float), True)
            return chain(*_read(u, z, True))

        def hat_input_grad(w):
            return hat_input_value_and_grad(w)[1]

    hat_input = ScalarField(f"{u.name}~straightened", hat_input_fn, hat_input_grad,
                            hat_input_value_and_grad)
    hat_field = extend_lipschitz(ctx, hat_input)

    def fn(z):
        z = np.array(z, dtype=float, copy=True)
        z[..., 1:] *= scale
        return hat_field.fn(forward_map(norm_spec, z))

    field = ScalarField(f"extend({u.name})", fn)
    return ConjugatedExtension(field, hat_field, hat_input, ctx, scale, "straightened",
                               _field_pullback(ctx, inverse))


def extend(u: ScalarField, psi, n: int, tol: float = DEFAULT_TOL) -> ConjugatedExtension:
    """Extend u off the domain of psi along the profile's one route.

    A Lipschitz profile is extended in place (``frame == "direct"``);
    any other profile is straightened first (``extend_general``).
    """
    if psi.lipschitz_constant is not None:
        ctx = ExtensionContext(DomainSpec(n, psi))
        eu = extend_lipschitz(ctx, u)
        return ConjugatedExtension(eu, eu, u, ctx, 1.0, "direct", _field_pullback(ctx))
    return extend_general(u, psi, n, tol)
