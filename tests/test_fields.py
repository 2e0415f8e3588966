import numpy as np
import pytest
from fd_oracle import central_difference

from cuspext.fields import (
    LIBRARY,
    linear_combination,
    make_field,
    tip_power_field,
)


def _interior_points(count, seed=0):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.05, 1.9, size=(count, 1))
    x = rng.uniform(-0.5, 0.5, size=(count, 2))
    return np.concatenate([t, x], axis=1)


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_analytic_gradient_matches_fd(name):
    u = make_field(name, 3)
    z = _interior_points(1000)  # t >= 0.05, clear of the tip-power junction
    ana = u.grad(z)
    num = central_difference(u.fn, z, h=1e-6)
    scale = np.maximum(np.linalg.norm(ana, axis=-1), 1.0)
    assert np.max(np.linalg.norm(ana - num, axis=-1) / scale) <= 1e-5


def test_wave_value_and_grad_is_fn_and_grad_bitwise():
    u = make_field("wave", 3)
    rng = np.random.default_rng(4)
    z = rng.uniform(-3.0, 3.0, size=(2000, 3))
    for batch in (z, z.reshape(40, 50, 3), z[7]):
        value, gradient = u.value_and_grad(batch)
        assert np.array_equal(value, u.fn(batch))
        assert np.array_equal(gradient, u.grad(batch))
        # the gradient is the six-call formula's, grouped as it was
        expected = np.zeros(batch.shape)
        expected[..., 0] = np.pi * np.cos(np.pi * batch[..., 0]) * np.cos(np.pi * batch[..., 1])
        expected[..., 1] = -np.pi * np.sin(np.pi * batch[..., 0]) * np.sin(np.pi * batch[..., 1])
        assert np.array_equal(gradient, expected)


def test_field_values():
    z = np.array([0.5, 0.3, -0.4])
    assert make_field("constant", 3).fn(z) == 1.0
    assert make_field("axial", 3).fn(z) == 0.5
    assert make_field("radial-sq", 3).fn(z) == pytest.approx(0.25)
    assert make_field("wave", 3).fn(z) == pytest.approx(
        np.sin(np.pi * 0.5) * np.cos(np.pi * 0.3))


def test_tip_power_cap_is_c1():
    u = tip_power_field(3, gamma=0.5, delta_cap=1e-3)
    d = 1e-3
    left = u.fn(np.array([d - 1e-10, 0.0, 0.0]))
    right = u.fn(np.array([d + 1e-10, 0.0, 0.0]))
    assert left == pytest.approx(right, rel=1e-6)
    gl = u.grad(np.array([d - 1e-10, 0.0, 0.0]))[0]
    gr = u.grad(np.array([d + 1e-10, 0.0, 0.0]))[0]
    assert gl == pytest.approx(gr, rel=1e-5)


def test_tip_power_validation():
    with pytest.raises(ValueError):
        tip_power_field(3, gamma=0.0)
    with pytest.raises(ValueError):
        tip_power_field(3, delta_cap=2.0)


def test_unknown_field_name():
    with pytest.raises(ValueError, match="unknown field"):
        make_field("bessel", 3)


def test_linear_combination():
    u = make_field("axial", 3)
    v = make_field("radial-sq", 3)
    w = linear_combination(2.0, u, -0.5, v)
    z = _interior_points(100, seed=1)
    assert np.allclose(w.fn(z), 2.0 * u.fn(z) - 0.5 * v.fn(z))
    assert np.allclose(w.grad(z), 2.0 * u.grad(z) - 0.5 * v.grad(z))
    t = linear_combination(1.0, u, 1.0, make_field("tip-power", 3))
    assert t.grad is not None
