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

import numpy as np

from . import geometry
from .errors import ProfileDomainError
from .fields import ScalarField
from .geometry import DomainSpec, ExtRegion
from .lipschitzify import DEFAULT_TOL, LipschitzizedProfile
from .profiles import profile_derivative
from .transform import forward_map, inverse_map, inverse_partials


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


def _split_collar(ctx: ExtensionContext, z, check: bool):
    """(t, x, |x|, R(t), reflection, cut-off) of collar points, checked against its closure.

    The reflection fixes t and maps the radius r to 1.5 R - 0.5 r, with
    R = psi(min(t, 1)); the cut-off is the affine weight 2 - r/R.
    """
    t, x, r = geometry.split(z, ctx.spec.n)
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


def extend_lipschitz(ctx: ExtensionContext, u: ScalarField) -> ScalarField:
    """Extend a field off the domain of a Lipschitz profile.

    The evaluator is linear in u by construction and vanishes
    identically outside the doubled domain.  When the field carries an
    analytic gradient and the profile a closed-form slope, the
    extension carries the chain-rule gradient too (it is exact off the
    seam set, which has measure zero), and ``value_and_grad`` returns
    value and gradient from one pass over each batch.
    """
    spec = ctx.spec
    slope = profile_derivative(spec.psi)

    def read_u(w, with_grad):
        if not with_grad:
            return np.asarray(u.fn(w), dtype=float), None
        uw, gw = u.value_and_grad(w) if u.value_and_grad else (u.fn(w), u.grad(w))
        return np.asarray(uw, dtype=float), np.asarray(gw, dtype=float)

    def evaluate(Z, with_grad):
        """(E u, grad E u or None) at (k, n) points, the end cap by one recursive call.

        The reflection keeps its domain check on, so a classification
        bug surfaces as a domain error instead of a silent wrong value.
        """
        label = geometry.classify_extension_region(spec, Z)
        val = np.zeros(Z.shape[0])
        grad = np.zeros_like(Z) if with_grad else None
        core = label == ExtRegion.CORE
        if np.any(core):
            val[core], g = read_u(Z[core], with_grad)
            if with_grad:
                grad[core] = g
        collar = label == ExtRegion.COLLAR
        if np.any(collar):
            t, x, r, R, reflected, cut = _split_collar(ctx, Z[collar], check=True)
            uw, gw = read_u(reflected, with_grad)
            del reflected
            val[collar] = cut * uw
            if with_grad:
                # product and chain rule with rho = 1.5 R - 0.5 r; r > 0 on the
                # collar, and the clip of the cut-off never acts there
                # cutoff gradient: d/dt = r R'/R^2, d/dx = -x/(r R)
                # reflected-point motion: d w_x/dt = 1.5 R' x/r,
                # D w_x/Dx = (rho/r) I + x x^T (-0.5 r - rho)/r^3
                rho = 1.5 * R - 0.5 * r
                dR = geometry.on_cusp(t, slope, lambda: 0.0)
                gx_dot_x = np.einsum("ij,ij->i", gw[:, 1:], x)
                grad[collar, 0] = (r * dR / R ** 2) * uw \
                    + cut * (gw[:, 0] + 1.5 * dR * gx_dot_x / r)
                radial_term = (-0.5 * r - rho) / r ** 3
                grad[collar, 1:] = (-(1.0 / (r * R)) * uw
                                    + cut * radial_term * gx_dot_x)[:, None] * x \
                    + (cut * rho / r)[:, None] * gw[:, 1:]
        cap = label == ExtRegion.END_CAP
        if np.any(cap):
            pv, pg = evaluate(end_cap_pullback(ctx, Z[cap], check=False), with_grad)
            cut = cutoff_cap(ctx, Z[cap], check=False)
            val[cap] = cut * pv
            if with_grad:
                # d/dz of cutoff_cap(z) * E(4 - t, x): the mirror flips the axial row
                gcap = cut[:, None] * pg
                gcap[:, 0] = -pv - cut * pg[:, 0]
                grad[cap] = gcap
        return val, grad

    def view(with_grad, pick):
        """Evaluator over (..., n) points; a 1-d point gives a scalar value."""

        def call(z):
            z = np.asarray(z, dtype=float)
            if not np.all(np.isfinite(z)):
                raise ProfileDomainError("extension point is not finite")
            val, grad = evaluate(z.reshape(-1, spec.n), with_grad)
            if z.ndim == 1:
                return pick(float(val[0]), None if grad is None else grad[0])
            return pick(val.reshape(z.shape[:-1]), None if grad is None else grad.reshape(z.shape))

        return call

    grad = value_and_grad = None
    if u.grad is not None and slope is not None:
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
    """

    field: ScalarField
    hat_field: ScalarField
    hat_input: ScalarField
    hat_context: ExtensionContext
    scale: float
    frame: str  # "direct" | "straightened"


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

    def from_hat(w):
        z = inverse_map(norm_spec, w)
        z[..., 1:] /= scale
        return z

    def hat_input_fn(w):
        return u.fn(from_hat(np.asarray(w, dtype=float)))

    hat_input_grad = hat_input_value_and_grad = None
    if u.grad is not None:
        def hat_input_value_and_grad(w):
            # J_inv^T grad u: the inverse maps (s, y) to (t(s, |y|), y / scale)
            w = np.asarray(w, dtype=float)
            z = from_hat(w)
            g = np.asarray(u.grad(z), dtype=float)
            d_s, d_rho = inverse_partials(norm_spec, w)
            y = w[..., 1:]
            radial = g[..., 0] * d_rho / np.maximum(np.linalg.norm(y, axis=-1), 1e-300)
            out = np.empty_like(g)
            out[..., 0] = g[..., 0] * d_s
            out[..., 1:] = radial[..., None] * y + g[..., 1:] / scale
            return u.fn(z), out

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
    return ConjugatedExtension(field, hat_field, hat_input, ctx, scale, "straightened")


def extend(u: ScalarField, psi, n: int, tol: float = DEFAULT_TOL) -> ConjugatedExtension:
    """Extend u off the domain of psi along the profile's one route.

    A Lipschitz profile is extended in place (``frame == "direct"``);
    any other profile is straightened first (``extend_general``).
    """
    if psi.lipschitz_constant is not None:
        ctx = ExtensionContext(DomainSpec(n, psi))
        eu = extend_lipschitz(ctx, u)
        return ConjugatedExtension(eu, eu, u, ctx, 1.0, "direct")
    return extend_general(u, psi, n, tol)
