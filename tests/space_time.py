"""The residual d_t u + L u of a candidate space-time harmonic function,
by finite differences, for checking that a function is harmonic for a
field."""

from typing import Callable, Sequence, Tuple

import numpy as np

from liouville_lab import CoefficientField


def space_time_residual(field: CoefficientField,
                        u: Callable[[float, np.ndarray], float],
                        grid: Sequence[Tuple[float, np.ndarray]],
                        h: float = 1e-3) -> float:
    """Max |d_t u + L u| over the grid, by second-order central
    differences with step h (4-point stencil for the mixed terms)."""
    if not h > 0:
        raise ValueError("h must be positive")
    worst = 0.0
    dim = field.dim
    eye = np.eye(dim)
    for t, x in grid:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != dim:
            raise ValueError("grid point dimension mismatch")
        b = np.asarray(field.drift(x[None]), dtype=float)[0]
        q = np.asarray(field.diffusion(x[None]), dtype=float)[0]
        u0 = float(u(t, x))
        dt_u = (float(u(t + h, x)) - float(u(t - h, x))) / (2.0 * h)
        val = dt_u
        for i in range(dim):
            up = float(u(t, x + h * eye[i]))
            dn = float(u(t, x - h * eye[i]))
            val += b[i] * (up - dn) / (2.0 * h)
            val += 0.5 * q[i, i] * (up - 2.0 * u0 + dn) / h ** 2
            for j in range(i + 1, dim):
                upp = float(u(t, x + h * eye[i] + h * eye[j]))
                upm = float(u(t, x + h * eye[i] - h * eye[j]))
                ump = float(u(t, x - h * eye[i] + h * eye[j]))
                umm = float(u(t, x - h * eye[i] - h * eye[j]))
                cross = (upp - upm - ump + umm) / (4.0 * h ** 2)
                val += q[i, j] * cross
        worst = max(worst, abs(val))
    return worst
