"""Pointwise-evaluable scalar fields used as extension-operator inputs.

Fields are vectorized over (..., n) point arrays.  Every library field
carries its analytic gradient, so norm computations stay exact.  The
extension's fields and ``wave`` also carry ``value_and_grad(Z)``:
``(fn(Z), grad(Z))``, bitwise, from one cheaper pass, which
``quadrature.w1p_norm`` and the extension's reads prefer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class ScalarField:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    value_and_grad: Callable[[np.ndarray], tuple] | None = None

    def __call__(self, z):
        return self.fn(np.asarray(z, dtype=float))


def constant_field(n: int, value: float = 1.0) -> ScalarField:
    def fn(z):
        return np.full(z.shape[:-1], float(value))

    def grad(z):
        return np.zeros(z.shape)

    return ScalarField(f"const[{value}]", fn, grad)


def axial_field(n: int) -> ScalarField:
    """u(t, x) = t."""

    def fn(z):
        return z[..., 0]

    def grad(z):
        g = np.zeros(z.shape)
        g[..., 0] = 1.0
        return g

    return ScalarField("axial", fn, grad)


def radial_sq_field(n: int) -> ScalarField:
    """u(t, x) = |x|^2."""

    def fn(z):
        return np.sum(z[..., 1:] ** 2, axis=-1)

    def grad(z):
        g = np.zeros(z.shape)
        g[..., 1:] = 2.0 * z[..., 1:]
        return g

    return ScalarField("radial-sq", fn, grad)


def wave_field(n: int) -> ScalarField:
    """u(t, x) = sin(pi t) cos(pi x_1)."""

    def fn(z):
        return np.sin(np.pi * z[..., 0]) * np.cos(np.pi * z[..., 1])

    def value_and_grad(z):
        # fn and grad from four trigonometric evaluations
        sin_t, cos_t = np.sin(np.pi * z[..., 0]), np.cos(np.pi * z[..., 0])
        sin_x, cos_x = np.sin(np.pi * z[..., 1]), np.cos(np.pi * z[..., 1])
        g = np.zeros(z.shape)
        g[..., 0] = np.pi * cos_t * cos_x
        g[..., 1] = -np.pi * sin_t * sin_x
        return sin_t * cos_x, g

    def grad(z):
        return value_and_grad(z)[1]

    return ScalarField("wave", fn, grad, value_and_grad)


def tip_power_field(n: int, gamma: float = 0.5, delta_cap: float = 2.0 ** -10) -> ScalarField:
    """u = t^(-gamma) for t >= delta_cap, quadratically capped below.

    The cap matches value, slope, and curvature at the junction, so the
    field is C^2 there.  The default junction sits on a dyadic point,
    which the graded quadrature uses as a panel edge.
    """
    if not gamma > 0.0 or not 0.0 < delta_cap < 1.0:
        raise ValueError(f"need gamma > 0 and delta_cap in (0, 1), got {gamma}, {delta_cap}")
    d = float(delta_cap)
    v0 = d ** -gamma
    c1 = -gamma * d ** (-gamma - 1.0)
    c2 = 0.5 * gamma * (gamma + 1.0) * d ** (-gamma - 2.0)

    def fn(z):
        t = z[..., 0]
        capped = v0 + c1 * (t - d) + c2 * (t - d) ** 2
        return np.where(t >= d, np.abs(t) ** -gamma, capped)

    def grad(z):
        t = z[..., 0]
        g = np.zeros(z.shape)
        g[..., 0] = np.where(t >= d, -gamma * np.abs(t) ** (-gamma - 1.0),
                             c1 + 2.0 * c2 * (t - d))
        return g

    return ScalarField(f"tip-power[{gamma}]", fn, grad)


LIBRARY = {
    "constant": constant_field,
    "axial": axial_field,
    "radial-sq": radial_sq_field,
    "wave": wave_field,
    "tip-power": tip_power_field,
}


def make_field(name: str, n: int, **params) -> ScalarField:
    """Instantiate a library field by name."""
    try:
        factory = LIBRARY[name]
    except KeyError:
        raise ValueError(f"unknown field {name!r}; choose from {sorted(LIBRARY)}") from None
    return factory(n, **params)


def linear_combination(alpha: float, u: ScalarField, beta: float, v: ScalarField) -> ScalarField:
    """alpha*u + beta*v with gradients combined when both are present."""

    def fn(z):
        return alpha * u.fn(z) + beta * v.fn(z)

    grad = None
    if u.grad is not None and v.grad is not None:
        def grad(z):
            return alpha * u.grad(z) + beta * v.grad(z)

    return ScalarField(f"{alpha}*{u.name}+{beta}*{v.name}", fn, grad)
