"""Reference systems and the low-pass filtered error.

The ideal reference system is x_ri' = A_r x_ri + B_r c.  The modified
reference system adds the mismatch term kappa (e - e_L), which is exactly
-kappa times the gradient of the cost 0.5 ||e - e_L||^2 with respect to e:
the reference state is steered toward the plant along the direction that
shrinks the high-frequency part of the system error.
"""

from __future__ import annotations

import numpy as np

from .matrixcore import DimensionError


def ideal_ref_deriv(x_ri, c, A_r, B_r) -> np.ndarray:
    """x_ri' = A_r x_ri + B_r c."""
    return A_r @ x_ri + B_r @ c


def modified_ref_deriv(x_r, c, e, e_L, kappa: float, A_r, B_r) -> np.ndarray:
    """x_r' = A_r x_r + B_r c + kappa (e - e_L)."""
    e = np.asarray(e, dtype=float)
    e_L = np.asarray(e_L, dtype=float)
    if e.shape != e_L.shape:
        raise DimensionError(f"e {e.shape} and e_L {e_L.shape} must match")
    return A_r @ x_r + B_r @ c + kappa * (e - e_L)


def filter_deriv(e_L, e, eta: float, A_r) -> np.ndarray:
    """e_L' = A_r e_L + eta (e - e_L); eta = 0 freezes e_L at its zero start."""
    if eta < 0:
        raise ValueError("filter gain eta must be nonnegative")
    return A_r @ e_L + eta * (np.asarray(e, dtype=float) - np.asarray(e_L, dtype=float))


def cost_and_gradient(e, e_L) -> tuple[float, np.ndarray]:
    """Mismatch cost J = 0.5 ||e - e_L||^2 and its negative gradient in e.

    The returned gradient g = -(e - e_L) is the direction injected (scaled by
    kappa) into the modified reference system.
    """
    e = np.asarray(e, dtype=float)
    e_L = np.asarray(e_L, dtype=float)
    if e.shape != e_L.shape:
        raise DimensionError(f"e {e.shape} and e_L {e_L.shape} must match")
    diff = e - e_L
    return 0.5 * float(diff @ diff), -diff
