"""The suite's one finite-difference oracle for analytic derivatives."""

import numpy as np


def central_difference(f, z, h=1e-7):
    """Central differences of f at (..., n) points z.

    A scalar-valued f gives a (..., n) gradient; a vector-valued f
    giving (..., m) gives a (..., m, n) Jacobian with [..., i, j] =
    d f_i / d z_j.  Callers keep the stencil clear of kinks.
    """
    z = np.asarray(z, dtype=float)
    cols = []
    for j in range(z.shape[-1]):
        step = np.zeros(z.shape[-1])
        step[j] = h
        cols.append((np.asarray(f(z + step)) - np.asarray(f(z - step))) / (2.0 * h))
    return np.stack(cols, axis=-1)
