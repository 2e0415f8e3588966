"""Test-side helpers the library itself never calls."""

import io
from dataclasses import dataclass

import numpy as np

from cuspext import extension, geometry
from cuspext.errors import ProfileDomainError
from cuspext.extension import ExtensionContext, cutoff_cap
from cuspext.fields import ScalarField
from cuspext.geometry import DomainSpec, ExtRegion
from cuspext.profiles import StepProfile, profile_derivative, save_profile_csv
from cuspext.transform import inverse_map, inverse_partials, sample_box


def cutoff_cusp_gradient(ctx: ExtensionContext, z, slope=None) -> np.ndarray:
    """Analytic gradient of the collar cutoff on the cusp part of the collar.

    ``slope`` evaluates psi'(t); defaults to the profile's closed form.
    """
    t, x, r = geometry.split(z, ctx.spec.n)
    if slope is None:
        slope = profile_derivative(ctx.spec.psi)
        if slope is None:
            raise ValueError("pass slope for profiles without a closed-form derivative")
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
    slope = profile_derivative(spec.psi)

    def batched(inner, cap_value, scalar_value):
        def call(z):
            z = np.asarray(z, dtype=float)
            if not np.all(np.isfinite(z)):
                raise ProfileDomainError("extension point is not finite")
            Z = z.reshape(-1, spec.n)
            out, label = inner(Z)
            cap = label == ExtRegion.END_CAP
            if np.any(cap):
                pulled = extension.end_cap_pullback(ctx, Z[cap], check=False)
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
        val_inner, _ = eval_inner(pulled)
        g_inner, _ = grad_inner(pulled)
        cut = cutoff_cap(ctx, Z, check=False)
        gcap = cut[:, None] * g_inner
        gcap[:, 0] = -val_inner - cut * g_inner[:, 0]
        return gcap

    return ScalarField(f"extend({u.name})", batched(eval_inner, cap_value, float),
                       batched(grad_inner, cap_gradient, lambda g: g))
