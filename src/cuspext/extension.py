"""Reflection/cut-off extension of scalar fields off a cuspidal domain.

A field living on the domain is pushed onto a doubled domain: each
collar point reflects back inside and the value is damped by an affine
cut-off that vanishes on the outer collar boundary, so the extension
drops to zero continuously everywhere except the cusp tip.  A final
cylinder segment (the end cap) reuses the already-extended values
through an axial pullback, damped to zero by t = 3.

The end-cap pullback is configurable.  ``mirror`` ((t, x) -> (4 - t, x))
fixes the t = 2 interface pointwise and is the only variant that keeps
the extension continuous there for axially-varying fields; ``shift1``
((t - 1, x)) and ``shift2`` ((t - 2, x)) are kept selectable so the
seam-continuity check can demonstrate the difference.
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
from .transform import forward_map, inverse_map, inverse_partials

END_CAP_MAPS = ("mirror", "shift1", "shift2")


@dataclass(frozen=True)
class ExtensionContext:
    """Frozen geometry for the extension of one domain spec.

    The profile must carry a finite Lipschitz constant: the collar
    reflection distorts by the profile slope, and an unbounded slope
    breaks the construction (re-profile first in that case).
    """

    spec: DomainSpec
    end_cap_map: str = "mirror"

    def __post_init__(self):
        if self.spec.psi.lipschitz_constant is None:
            raise ValueError("extension requires a Lipschitz profile; "
                             "build one with lipschitzify first")
        if self.end_cap_map not in END_CAP_MAPS:
            raise ValueError(f"end_cap_map must be one of {END_CAP_MAPS}")

    @property
    def psi1(self) -> float:
        return self.spec.psi1

    @property
    def outer_radius(self) -> float:
        # collar and cap cylinders share the doubled opening radius
        return 2.0 * self.spec.psi1


def _collar_radius(ctx: ExtensionContext, t):
    t = np.asarray(t, dtype=float)
    return np.asarray(ctx.spec.psi.value(np.clip(t, 1e-300, 1.0)), dtype=float)


def reflect_cusp(ctx: ExtensionContext, z, check: bool = True) -> np.ndarray:
    """Fold the cusp collar back into the domain, fixing |x| = psi(t)."""
    t, x, r = geometry.split(z, ctx.spec.n)
    pv = _collar_radius(ctx, t)
    if check:
        bad = (t <= 0.0) | (t > 1.0) | (r < pv * (1.0 - 1e-12)) | (r > 2.0 * pv * (1.0 + 1e-12))
        if np.any(bad):
            raise ProfileDomainError("point outside the cusp collar closure")
    out = np.array(z, dtype=float, copy=True)
    factor = (1.5 * pv - 0.5 * r) / np.maximum(r, 1e-300)
    out[..., 1:] = x * factor[..., None]
    return out


def cutoff_cusp(ctx: ExtensionContext, z, check: bool = True) -> np.ndarray:
    """Affine weight: 1 on |x| = psi(t), 0 on |x| = 2 psi(t)."""
    t, _, r = geometry.split(z, ctx.spec.n)
    pv = _collar_radius(ctx, t)
    if check:
        bad = (t <= 0.0) | (t > 1.0) | (r < pv * (1.0 - 1e-12)) | (r > 2.0 * pv * (1.0 + 1e-12))
        if np.any(bad):
            raise ProfileDomainError("point outside the cusp collar closure")
    return np.clip(2.0 - r / pv, 0.0, 1.0)


def cutoff_cusp_gradient(ctx: ExtensionContext, z, slope: Callable | None = None) -> np.ndarray:
    """Analytic gradient of the cusp-collar cutoff (test oracle).

    ``slope`` evaluates psi'(t); defaults to the profile's closed form.
    """
    t, x, r = geometry.split(z, ctx.spec.n)
    if slope is None:
        slope = profile_derivative(ctx.spec.psi)
        if slope is None:
            raise ValueError("pass slope for profiles without a closed-form derivative")
    pv = _collar_radius(ctx, t)
    g = np.zeros(np.shape(z))
    g[..., 0] = r * np.asarray(slope(t)) / pv ** 2
    g[..., 1:] = -x / (pv * np.maximum(r, 1e-300))[..., None]
    return g


def reflect_tube(ctx: ExtensionContext, z, check: bool = True) -> np.ndarray:
    """Fold the tube collar into the tube, fixing |x| = psi(1)."""
    t, x, r = geometry.split(z, ctx.spec.n)
    psi1 = ctx.psi1
    if check:
        bad = (t < 1.0) | (t > 2.0) | (r < psi1 * (1.0 - 1e-12)) | (r > 2.0 * psi1 * (1.0 + 1e-12))
        if np.any(bad):
            raise ProfileDomainError("point outside the tube collar closure")
    out = np.array(z, dtype=float, copy=True)
    factor = (1.5 * psi1 - 0.5 * r) / np.maximum(r, 1e-300)
    out[..., 1:] = x * factor[..., None]
    return out


def cutoff_tube(ctx: ExtensionContext, z, check: bool = True) -> np.ndarray:
    """Affine weight: 1 on |x| = psi(1), 0 on |x| = 2 psi(1)."""
    t, _, r = geometry.split(z, ctx.spec.n)
    psi1 = ctx.psi1
    if check:
        bad = (t < 1.0) | (t > 2.0) | (r < psi1 * (1.0 - 1e-12)) | (r > 2.0 * psi1 * (1.0 + 1e-12))
        if np.any(bad):
            raise ProfileDomainError("point outside the tube collar closure")
    return np.clip(2.0 - r / psi1, 0.0, 1.0)


def end_cap_pullback(ctx: ExtensionContext, z, check: bool = True) -> np.ndarray:
    """Map the end cap onto already-extended territory."""
    t, _, r = geometry.split(z, ctx.spec.n)
    if check:
        bad = (t < 2.0) | (t > 3.0) | (r > ctx.outer_radius * (1.0 + 1e-12))
        if np.any(bad):
            raise ProfileDomainError("point outside the end cap closure")
    out = np.array(z, dtype=float, copy=True)
    if ctx.end_cap_map == "mirror":
        out[..., 0] = 4.0 - t
    elif ctx.end_cap_map == "shift1":
        out[..., 0] = t - 1.0
    else:
        out[..., 0] = t - 2.0
    return out


def cutoff_cap(ctx: ExtensionContext, z, check: bool = True) -> np.ndarray:
    """Affine weight: 1 at t = 2, 0 at t = 3."""
    t, _, r = geometry.split(z, ctx.spec.n)
    if check:
        bad = (t < 2.0) | (t > 3.0) | (r > ctx.outer_radius * (1.0 + 1e-12))
        if np.any(bad):
            raise ProfileDomainError("point outside the end cap closure")
    return np.clip(3.0 - t, 0.0, 1.0)


def _collar_chain_gradient(ctx, Z, u, slope, psi1_flat: bool):
    """Gradient of cutoff(z) * u(reflection(z)) on a collar.

    The reflection fixes t and maps the radius to 1.5*R - 0.5*r with
    R = psi(t) (or the frozen tube radius); the cutoff is 2 - r/R.
    Plain product/chain rule, vectorized; r > 0 away from the axis,
    which the collar guarantees.
    """
    t = Z[:, 0]
    x = Z[:, 1:]
    r = np.linalg.norm(x, axis=1)
    if psi1_flat:
        R = np.full_like(t, ctx.psi1)
        dR = np.zeros_like(t)
    else:
        R = _collar_radius(ctx, t)
        dR = np.asarray(slope(np.clip(t, 1e-300, 1.0)), dtype=float)
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

    def eval_inner(Z):
        # the first three branches: core, cusp collar, tube collar; the
        # reflection ops keep their domain checks on, so a classification
        # bug surfaces as a domain error instead of a silent wrong value
        label = geometry.classify_extension_region(spec, Z)
        label = np.atleast_1d(label)
        out = np.zeros(Z.shape[0])
        core = label == ExtRegion.CORE
        if np.any(core):
            out[core] = u.fn(Z[core])
        collar = label == ExtRegion.CUSP_COLLAR
        if np.any(collar):
            out[collar] = (cutoff_cusp(ctx, Z[collar], check=False)
                           * u.fn(reflect_cusp(ctx, Z[collar])))
        tube = label == ExtRegion.TUBE_COLLAR
        if np.any(tube):
            out[tube] = (cutoff_tube(ctx, Z[tube], check=False)
                         * u.fn(reflect_tube(ctx, Z[tube])))
        return out, label

    def fn(z):
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 1
        Z = z.reshape(-1, spec.n)
        out, label = eval_inner(Z)
        cap = label == ExtRegion.END_CAP
        if np.any(cap):
            pulled = end_cap_pullback(ctx, Z[cap], check=False)
            inner, _ = eval_inner(pulled)
            out[cap] = cutoff_cap(ctx, Z[cap], check=False) * inner
        if scalar:
            return float(out[0])
        return out.reshape(z.shape[:-1])

    def grad_inner(Z):
        label = geometry.classify_extension_region(spec, Z)
        label = np.atleast_1d(label)
        out = np.zeros_like(Z)
        core = label == ExtRegion.CORE
        if np.any(core):
            out[core] = u.grad(Z[core])
        collar = label == ExtRegion.CUSP_COLLAR
        if np.any(collar):
            out[collar] = _collar_chain_gradient(ctx, Z[collar], u, slope, False)
        tube = label == ExtRegion.TUBE_COLLAR
        if np.any(tube):
            out[tube] = _collar_chain_gradient(ctx, Z[tube], u, slope, True)
        return out, label

    grad = None
    if u.grad is not None and slope is not None:
        def grad(z):
            z = np.asarray(z, dtype=float)
            scalar = z.ndim == 1
            Z = z.reshape(-1, spec.n)
            out, label = grad_inner(Z)
            cap = label == ExtRegion.END_CAP
            if np.any(cap):
                pulled = end_cap_pullback(ctx, Z[cap], check=False)
                val_inner, _ = eval_inner(pulled)
                g_inner, _ = grad_inner(pulled)
                cut = cutoff_cap(ctx, Z[cap], check=False)
                axial_sign = -1.0 if ctx.end_cap_map == "mirror" else 1.0
                gcap = cut[:, None] * g_inner
                gcap[:, 0] = -val_inner + cut * axial_sign * g_inner[:, 0]
                out[cap] = gcap
            if scalar:
                return out[0]
            return out.reshape(z.shape)

    return ScalarField(f"extend({u.name})", fn, grad)


@dataclass
class ConjugatedExtension:
    """Extension of a field off an arbitrary-profile domain.

    Built by straightening the domain onto its Lipschitz twin,
    extending there, and pulling back: ``field`` is the extension in
    original coordinates, ``hat_field`` the same object in straightened
    coordinates (where quadrature is cheap and exact), and
    ``hat_input`` the field pulled into straightened coordinates.
    """

    field: ScalarField
    hat_field: ScalarField
    hat_input: ScalarField
    hat_context: ExtensionContext
    scale: float


def extend_general(u: ScalarField, psi, n: int, tol: float = DEFAULT_TOL,
                   end_cap_map: str = "mirror") -> ConjugatedExtension:
    """Extend off the domain of an arbitrary cusp profile.

    The restriction to the original domain reproduces u up to the
    round-trip error of the straightening map (below 1e-8 for smooth
    fields at the default tolerance).  When u carries an analytic
    gradient, so do ``hat_input`` and ``hat_field``.
    """
    norm_spec, scale = geometry.normalize(DomainSpec(n, psi))
    hat = LipschitzizedProfile(norm_spec.psi, tol)
    ctx = ExtensionContext(DomainSpec(n, hat), end_cap_map)

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
    return ConjugatedExtension(field, hat_field, hat_input, ctx, scale)
