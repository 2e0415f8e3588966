"""Test-side helpers the library itself never calls."""

import io
from dataclasses import dataclass

import numpy as np

from cuspext import geometry
from cuspext.extension import ExtensionContext
from cuspext.fields import ScalarField
from cuspext.geometry import ExtRegion
from cuspext.profiles import StepProfile, profile_derivative, save_profile_csv
from cuspext.transform import sample_box


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
