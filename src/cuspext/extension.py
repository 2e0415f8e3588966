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
from .errors import ProfileDomainError, ProfileFormatError
from .fields import ScalarField
from .geometry import DomainSpec, ExtRegion
from .lipschitzify import reprofile
from .transform import _inverse_branches, forward_map, inverse_map, inverse_partials


@dataclass(frozen=True)
class ExtensionContext:
    """Frozen geometry for the extension of one domain spec.

    The profile must carry a Lipschitz constant: the collar reflection
    distorts by the profile slope, and an unbounded slope breaks the
    construction (re-profile first in that case).  That constant and
    2 psi(1), the collar's outer wall and the end cap's radius, must be
    finite, or ProfileFormatError names the one that is not.
    """

    spec: DomainSpec

    def __post_init__(self):
        lip = self.spec.psi.lipschitz_constant
        if lip is None:
            raise ValueError("extension requires a Lipschitz profile; "
                             "build one with lipschitzify first")
        for name, value in (("Lipschitz constant", lip), ("2 psi(1)", 2.0 * self.spec.psi1)):
            if not np.isfinite(value):
                raise ProfileFormatError(f"profile: {name} = {float(value)!r} is not finite; "
                                         f"the extension needs it finite")


def _split_collar(ctx: ExtensionContext, z, R):
    """(t, x, |x|, R(t), reflection, cut-off) of collar points, checked against its closure.

    The reflection fixes t and maps the radius r to 1.5 R - 0.5 r, with
    R = psi(min(t, 1)) the collar radius at the points, which the caller
    passes; the cut-off is the affine weight 2 - r/R.
    """
    t, x, r = geometry.split(z, ctx.spec.n)
    bad = (t <= 0.0) | (t > 2.0) | (r < R * (1.0 - 1e-12)) | (r > 2.0 * R * (1.0 + 1e-12))
    if np.any(bad):
        raise ProfileDomainError("point outside the collar closure")
    reflected = np.array(z, dtype=float, copy=True)
    reflected[..., 1:] = x * ((1.5 * R - 0.5 * r) / np.maximum(r, 1e-300))[..., None]
    return t, x, r, R, reflected, np.clip(2.0 - r / R, 0.0, 1.0)


def end_cap_pullback(z) -> np.ndarray:
    """Mirror the end cap onto the tube: (t, x) -> (4 - t, x)."""
    out = np.array(z, dtype=float, copy=True)
    out[..., 0] = 4.0 - out[..., 0]
    return out


def cutoff_cap(z) -> np.ndarray:
    """Affine weight: 1 at t = 2, 0 at t = 3."""
    return np.clip(3.0 - np.asarray(z, dtype=float)[..., 0], 0.0, 1.0)


def _reader(w, with_grad: bool, inner=None):
    """``read(u) -> (u, grad u)`` at points w, grad None without gradients.

    With ``inner`` (``_inverse_pullback``) it reads u o inner: u at the
    points inner pulls w back to, turned back by inner's chain rule.
    """
    if inner is not None:
        z, chain = inner(w, with_grad)
        return lambda u: chain(*_reader(z, with_grad)(u))

    def read(u):
        if not with_grad:
            return np.asarray(u.fn(w), dtype=float), None
        uw, gw = u.value_and_grad(w) if u.value_and_grad else (u.fn(w), u.grad(w))
        return np.asarray(uw, dtype=float), np.asarray(gw, dtype=float)

    return read


def _pullback(ctx: ExtensionContext, Z, with_grad: bool, inner=None):
    """E's field-independent half at (k, n) points Z; returns ``push(u)``.

    Each point reads u at most once: the core at itself, the collar at
    its reflection, the end cap where its mirror image reads (one
    recursive pullback), each through ``inner`` when given.  The three
    regions are held as integer index arrays, which scatter faster than
    boolean masks.  ``push(u)`` reads u and grad u (None without
    gradients) at one set of read points at a time, so no read outlives
    its use, and returns E u and grad E u at Z.  It writes the gradient
    one column at a time: 1-d operations cost less than broadcasting a
    (k, 1) factor over (k, n - 1) columns.  The collar's chain-rule
    factors do not depend on u and are taken once per pullback.  The reflection keeps its
    domain check on, so a classification bug surfaces as a domain error
    instead of a silent wrong value.
    """
    spec = ctx.spec
    k, n = Z.shape
    t = Z[:, 0]
    R, dR = geometry.collar_radius(spec, t, True) if with_grad else (
        geometry.collar_radius(spec, t), None)
    label = geometry.classify_extension_region(spec, Z, R)

    core, collar, cap = (np.flatnonzero(label == region) for region in
                         (ExtRegion.CORE, ExtRegion.COLLAR, ExtRegion.END_CAP))
    del label
    core_reads = _reader(Z[core], with_grad, inner) if core.size else None
    collar_reads = cap_push = None
    if collar.size:
        _, x, r, R, reflected, cut = _split_collar(ctx, Z[collar], R[collar])
        x = np.ascontiguousarray(x)  # a view would keep the whole (k, n) copy
        collar_reads = _reader(reflected, with_grad, inner)
        if with_grad:
            # the chain rule's field-independent factors, once per pullback;
            # with rho = 1.5 R - 0.5 r, r > 0 on the collar, and the clip of
            # the cut-off never acts there:
            # cutoff gradient: d/dt = r R'/R^2, d/dx = -x/(r R)
            # reflected-point motion: d w_x/dt = 1.5 R' x/r,
            # D w_x/Dx = (rho/r) I + x x^T (-0.5 r - rho)/r^3
            dR = dR[collar]
            rho = 1.5 * R - 0.5 * r
            cut_dt, motion_dt, cut_dx = r * dR / R ** 2, 1.5 * dR, -(1.0 / (r * R))
            motion_radial = cut * ((-0.5 * r - rho) / r ** 3)
            motion_diag = cut * rho / r
    if cap.size:
        cap_push = _pullback(ctx, end_cap_pullback(Z[cap]), with_grad, inner)
        cap_cut = cutoff_cap(Z[cap])

    def push(u):
        val = np.zeros(k)
        grad = np.zeros((k, n)) if with_grad else None
        if core_reads:
            uw, gw = core_reads(u)
            val[core] = uw
            if with_grad:
                grad[core] = gw
            del uw, gw
        if collar_reads:
            uw, gw = collar_reads(u)
            val[collar] = cut * uw
            if with_grad:
                # product and chain rule through the factors above
                gx_dot_x = np.einsum("ij,ij->i", gw[:, 1:], x)
                grad[collar, 0] = cut_dt * uw + cut * (gw[:, 0] + motion_dt * gx_dot_x / r)
                a = cut_dx * uw + motion_radial * gx_dot_x
                for j in range(1, n):
                    grad[collar, j] = a * x[:, j - 1] + motion_diag * gw[:, j]
            del uw, gw
        if cap_push:
            pv, pg = cap_push(u)
            val[cap] = cap_cut * pv
            if with_grad:
                # d/dz of cutoff_cap(z) * E(4 - t, x): the mirror flips the axial row
                grad[cap, 0] = -pv - cap_cut * pg[:, 0]
                for j in range(1, n):
                    grad[cap, j] = cap_cut * pg[:, j]
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
            for j in range(1, g.shape[-1]):
                out[..., j] = radial * y[..., j - 1] + g[..., j] / scale
            return uz, out

        return z, chain

    return pull


def extend_lipschitz(ctx: ExtensionContext, u: ScalarField, inner=None) -> ScalarField:
    """Extend a field off the domain of a Lipschitz profile.

    The evaluator is linear in u by construction and vanishes
    identically outside the doubled domain.  Each view pulls its batch
    back once (``_pullback``) and then reads u once at the
    pulled-back points, through ``inner`` when given: then the field
    extended is u o inner.  The views take (..., n) points, checked
    where they enter: the last axis must be n wide, with every
    coordinate finite.  When the field carries an analytic gradient,
    the extension carries the chain-rule gradient too (it is exact off
    the seam set, which has measure zero; every profile a route hands it
    has a closed-form slope, which the bisection view has not), and
    ``value_and_grad`` returns both from one pass.
    """
    n = ctx.spec.n

    def view(gradient, pick):
        def call(z):
            z = np.asarray(z, dtype=float)
            if z.ndim == 0 or z.shape[-1] != n:
                raise ValueError(f"point has dimension {z.shape[-1] if z.ndim else 0}, "
                                 f"spec has n={n}")
            geometry._finite(z)
            val, grad = _pullback(ctx, z.reshape(-1, n), gradient, inner)(u)
            return pick(val.reshape(z.shape[:-1]), None if grad is None else grad.reshape(z.shape))

        return call

    grads = ((view(True, lambda v, g: g), view(True, lambda v, g: (v, g)))
             if u.grad is not None else ())
    return ScalarField(f"extend({u.name})", view(False, lambda v, g: v), *grads)


@dataclass(frozen=True)
class ConjugatedExtension:
    """The extension operator E u = (E^(u o T^-1)) o T of one domain; it holds no field.

    ``spec`` is the original domain.  T straightens it onto its
    Lipschitz twin, which E^ extends; ``inner`` is T^-1 with its
    partials (``_inverse_pullback``), and every read of a field u goes
    through it.  On the direct route T is the identity and ``inner`` is
    None.  The pullbacks pull (k, n) points back once and return a
    ``push(v) -> (values, gradients or None)`` for any field v:
    ``pullback(W)`` for E^ at straightened points, ``field_pullback(Z)``
    for E at original-frame points (values only) and
    ``input_pullback(W)`` for v o T^-1; the first two reject a point
    that is not finite with ProfileDomainError, as the field views do.
    The one field view, ``hat_field(u)``, is E^(u o T^-1) in
    straightened coordinates (where quadrature is cheap and exact).
    """

    spec: DomainSpec
    hat_context: ExtensionContext
    scale: float = 1.0
    norm_spec: DomainSpec | None = None  # the normalized original domain; None when direct
    inner: Callable | None = None

    @property
    def frame(self) -> str:
        return "direct" if self.inner is None else "straightened"

    def hat_field(self, u: ScalarField) -> ScalarField:
        return extend_lipschitz(self.hat_context, u, self.inner)

    def pullback(self, W, with_grad: bool = True):
        return _pullback(self.hat_context, geometry._finite(W), with_grad, self.inner)

    def field_pullback(self, Z):
        if self.inner is None:
            return self.pullback(Z, False)
        z = Z.copy()
        z[:, 1:] *= self.scale
        # forward_map rejects a point that is not finite, as pullback does on the direct route
        return _pullback(self.hat_context, forward_map(self.norm_spec, z), False, self.inner)

    def input_pullback(self, W, with_grad: bool = False):
        return _reader(W, with_grad, self.inner)


def extend_general(psi, n: int) -> ConjugatedExtension:
    """The extension operator of an arbitrary cusp profile's domain, by straightening.

    E u, read through ``field_pullback``, reproduces u on the original
    domain up to the round-trip error of the straightening map (below
    1e-8 for smooth fields).  When u carries an analytic gradient, so do
    ``input_pullback(W, True)`` and ``hat_field(u)``.
    """
    spec = DomainSpec(n, psi)
    norm_spec, scale = geometry.normalize(spec)
    ctx = ExtensionContext(DomainSpec(n, reprofile(norm_spec.psi)))
    return ConjugatedExtension(spec, ctx, scale, norm_spec, _inverse_pullback(norm_spec, scale))


def extend(psi, n: int) -> ConjugatedExtension:
    """The extension operator of the domain of psi, along the profile's one route.

    A Lipschitz profile is extended in place (``frame == "direct"``);
    any other profile is straightened first (``extend_general``).
    """
    if psi.lipschitz_constant is not None:
        spec = DomainSpec(n, psi)
        return ConjugatedExtension(spec, ExtensionContext(spec))
    return extend_general(psi, n)
