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
    """(t, x, |x|, R(t)) of collar points, checked against the collar closure."""
    t, x, r = geometry.split(z, ctx.spec.n)
    R = geometry.collar_radius(ctx.spec, t)
    if check:
        bad = (t <= 0.0) | (t > 2.0) | (r < R * (1.0 - 1e-12)) | (r > 2.0 * R * (1.0 + 1e-12))
        if np.any(bad):
            raise ProfileDomainError("point outside the collar closure")
    return t, x, r, R


def reflect_collar(ctx: ExtensionContext, z, check: bool = True) -> np.ndarray:
    """Fold the collar back into the domain, fixing |x| = R(t)."""
    _, x, r, R = _split_collar(ctx, z, check)
    out = np.array(z, dtype=float, copy=True)
    factor = (1.5 * R - 0.5 * r) / np.maximum(r, 1e-300)
    out[..., 1:] = x * factor[..., None]
    return out


def cutoff_collar(ctx: ExtensionContext, z, check: bool = True) -> np.ndarray:
    """Affine weight: 1 on |x| = R(t), 0 on |x| = 2 R(t)."""
    _, _, r, R = _split_collar(ctx, z, check)
    return np.clip(2.0 - r / R, 0.0, 1.0)


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


def _collar_chain_gradient(ctx, Z, u, slope):
    """Gradient of cutoff(z) * u(reflection(z)) on the collar.

    The reflection fixes t and maps the radius to 1.5*R - 0.5*r with
    R = psi(min(t, 1)); the cutoff is 2 - r/R.  Plain product/chain
    rule, vectorized; r > 0 away from the axis, which the collar
    guarantees.
    """
    t, x, r, R = _split_collar(ctx, Z, check=False)
    dR = geometry.on_cusp(t, slope, lambda: 0.0)
    rho = 1.5 * R - 0.5 * r
    cut = 2.0 - r / R
    w = np.concatenate([t[:, None], (rho / r)[:, None] * x], axis=1)
    uw = u.fn(w)
    gw = np.asarray(u.grad(w), dtype=float)
    gx_dot_x = np.einsum("ij,ij->i", gw[:, 1:], x)

    out = np.empty_like(Z)
    # cutoff gradient: d/dt = r R'/R^2, d/dx = -x/(r R)
    # reflected-point motion: d w_x/dt = 1.5 R' x/r,
    # D w_x/Dx = (rho/r) I + x x^T (-0.5 r - rho)/r^3
    out[:, 0] = (r * dR / R ** 2) * uw \
        + cut * (gw[:, 0] + 1.5 * dR * gx_dot_x / r)
    radial_term = (-0.5 * r - rho) / r ** 3
    out[:, 1:] = (-(1.0 / (r * R)) * uw + cut * radial_term * gx_dot_x)[:, None] * x \
        + (cut * rho / r)[:, None] * gw[:, 1:]
    return out


def extend_lipschitz(ctx: ExtensionContext, u: ScalarField) -> ScalarField:
    """Extend a field off the domain of a Lipschitz profile.

    The evaluator is linear in u by construction and vanishes
    identically outside the doubled domain.  When the field carries an
    analytic gradient and the profile a closed-form slope, the
    extension carries the chain-rule gradient too (it is exact off the
    seam set, which has measure zero).
    """
    spec = ctx.spec
    slope = profile_derivative(spec.psi)

    def batched(inner, cap_value, scalar_value):
        """Evaluator over (..., n) points: ``inner`` on core and collar,
        ``cap_value(Z, pulled)`` on the end cap via the mirror pullback."""

        def call(z):
            z = np.asarray(z, dtype=float)
            if not np.all(np.isfinite(z)):
                raise ProfileDomainError("extension point is not finite")
            Z = z.reshape(-1, spec.n)
            out, label = inner(Z)
            cap = label == ExtRegion.END_CAP
            if np.any(cap):
                out[cap] = cap_value(Z[cap], end_cap_pullback(ctx, Z[cap], check=False))
            if z.ndim == 1:
                return scalar_value(out[0])
            return out.reshape(z.shape[:-1] + out.shape[1:])

        return call

    def eval_inner(Z):
        # the first two branches: core and collar; the reflection keeps
        # its domain check on, so a classification bug surfaces as a
        # domain error instead of a silent wrong value
        label = geometry.classify_extension_region(spec, Z)
        out = np.zeros(Z.shape[0])
        core = label == ExtRegion.CORE
        if np.any(core):
            out[core] = u.fn(Z[core])
        collar = label == ExtRegion.COLLAR
        if np.any(collar):
            out[collar] = (cutoff_collar(ctx, Z[collar], check=False)
                           * u.fn(reflect_collar(ctx, Z[collar])))
        return out, label

    def cap_value(Z, pulled):
        return cutoff_cap(ctx, Z, check=False) * eval_inner(pulled)[0]

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
        # d/dz of cutoff_cap(z) * E(4 - t, x): the mirror flips the axial row
        val_inner, _ = eval_inner(pulled)
        g_inner, _ = grad_inner(pulled)
        cut = cutoff_cap(ctx, Z, check=False)
        gcap = cut[:, None] * g_inner
        gcap[:, 0] = -val_inner - cut * g_inner[:, 0]
        return gcap

    fn = batched(eval_inner, cap_value, float)
    grad = None
    if u.grad is not None and slope is not None:
        grad = batched(grad_inner, cap_gradient, lambda g: g)
    return ScalarField(f"extend({u.name})", fn, grad)


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

    hat_input_grad = None
    if u.grad is not None:
        def hat_input_grad(w):
            # J_inv^T grad u: the inverse maps (s, y) to (t(s, |y|), y / scale)
            w = np.asarray(w, dtype=float)
            g = np.asarray(u.grad(from_hat(w)), dtype=float)
            d_s, d_rho = inverse_partials(norm_spec, w)
            y = w[..., 1:]
            radial = g[..., 0] * d_rho / np.maximum(np.linalg.norm(y, axis=-1), 1e-300)
            out = np.empty_like(g)
            out[..., 0] = g[..., 0] * d_s
            out[..., 1:] = radial[..., None] * y + g[..., 1:] / scale
            return out

    hat_input = ScalarField(f"{u.name}~straightened", hat_input_fn, hat_input_grad)
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
