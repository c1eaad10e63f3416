"""Dense linear algebra for small control problems.

Everything here operates on plain numpy arrays at desk scale (n <= ~10):
Hurwitz tests, the continuous Lyapunov equation A'P + P A + R = 0, symmetric
eigenvalue extremes, and the handful of norms used by the analysis layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Strictness tolerance for "all eigenvalues in the open left half plane".
HURWITZ_TOL = 1e-10
# Relative residual accepted from the Lyapunov solve.
LYAP_RESIDUAL_TOL = 1e-10
# Allowed asymmetry (relative to the largest entry) for symmetric-only routines.
SYMMETRY_TOL = 1e-12


class DimensionError(ValueError):
    """Shapes of the inputs are inconsistent with the operation."""


class NotHurwitzError(ValueError):
    """A matrix required to be Hurwitz has an eigenvalue with Re >= 0."""


class NotSPDError(ValueError):
    """A matrix required to be symmetric positive definite is not."""


def _square(A, name: str = "matrix") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} has non-finite entries")
    return A


def _check_symmetric(S: np.ndarray, name: str = "matrix") -> None:
    scale = max(1.0, float(np.max(np.abs(S))) if S.size else 1.0)
    if float(np.max(np.abs(S - S.T))) > SYMMETRY_TOL * scale:
        raise ValueError(f"{name} is not symmetric within tolerance {SYMMETRY_TOL}")


def is_hurwitz(A) -> bool:
    """True iff every eigenvalue of the square matrix A has Re < -HURWITZ_TOL."""
    A = _square(A, "A")
    return bool(np.all(np.linalg.eigvals(A).real < -HURWITZ_TOL))


def is_spd(S) -> bool:
    """True iff S is symmetric (to tolerance) with all eigenvalues > 0."""
    S = _square(S, "S")
    try:
        _check_symmetric(S, "S")
    except ValueError:
        return False
    return bool(np.linalg.eigvalsh(0.5 * (S + S.T))[0] > 0.0)


def solve_lyapunov(A_r, R) -> np.ndarray:
    """Solve A_r' P + P A_r + R = 0 for the unique SPD P.

    A_r must be Hurwitz and R symmetric positive definite.  The equation is
    vectorized to (I (x) A_r' + A_r' (x) I) vec(P) = -vec(R) and solved
    densely, which is fine for the n <= ~10 systems this library targets.
    One refinement pass keeps the relative residual under LYAP_RESIDUAL_TOL,
    and the result is symmetrized exactly so downstream eigenvalue calls see
    P = P' to the last bit.
    """
    A_r = _square(A_r, "A_r")
    R = _square(R, "R")
    if A_r.shape != R.shape:
        raise DimensionError(f"A_r {A_r.shape} and R {R.shape} must match")
    if not is_hurwitz(A_r):
        raise NotHurwitzError("A_r is not Hurwitz; the Lyapunov equation has no SPD solution")
    if not is_spd(R):
        raise NotSPDError("R must be symmetric positive definite")

    n = A_r.shape[0]
    eye = np.eye(n)
    M = np.kron(eye, A_r.T) + np.kron(A_r.T, eye)
    vec = lambda X: X.flatten(order="F")
    P = np.linalg.solve(M, -vec(R)).reshape((n, n), order="F")
    r_norm = float(np.linalg.norm(R))
    for _ in range(3):
        res = A_r.T @ P + P @ A_r + R
        if float(np.linalg.norm(res)) <= LYAP_RESIDUAL_TOL * r_norm:
            break
        P = P + np.linalg.solve(M, -vec(res)).reshape((n, n), order="F")
    P = 0.5 * (P + P.T)
    res = float(np.linalg.norm(A_r.T @ P + P @ A_r + R))
    if res > LYAP_RESIDUAL_TOL * r_norm:
        raise ArithmeticError(
            f"Lyapunov residual {res:.3e} exceeds {LYAP_RESIDUAL_TOL:.0e}*||R||_F"
        )
    return P


def sym_eig_extremes(S) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix."""
    S = _square(S, "S")
    _check_symmetric(S, "S")
    w = np.linalg.eigvalsh(0.5 * (S + S.T))
    return float(w[0]), float(w[-1])


def norms(M) -> dict[str, float]:
    """Frobenius, two- and infinity norms of a vector or matrix.

    Vectors: two == frobenius == Euclidean norm, inf == max |component|.
    Matrices: frobenius == sqrt(sum of squared entries), two == spectral
    norm, inf == induced max absolute row sum.
    """
    a = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("input has non-finite entries")
    if a.ndim == 1:
        two = float(np.linalg.norm(a))
        return {
            "frobenius": two,
            "two": two,
            "inf": float(np.max(np.abs(a))) if a.size else 0.0,
        }
    if a.ndim != 2:
        raise DimensionError(f"expected vector or matrix, got ndim={a.ndim}")
    return {
        "frobenius": float(np.linalg.norm(a, "fro")),
        "two": float(np.linalg.norm(a, 2)),
        "inf": float(np.linalg.norm(a, np.inf)),
    }


def frobenius_norms(stack) -> np.ndarray:
    """Frobenius norm of each stack[i], equal to np.linalg.norm(stack[i]) of a
    C-ordered slice: the same dot product of its flattened entries."""
    a = np.asarray(stack, dtype=float)
    flat = a.reshape(a.shape[0], math.prod(a.shape[1:]))
    return np.array([math.sqrt(row.dot(row)) for row in flat])


@dataclass(frozen=True)
class LyapunovPair:
    """An (R, P) pair solving A_r' P + P A_r + R = 0 for some Hurwitz A_r."""

    R: np.ndarray
    P: np.ndarray

    @classmethod
    def for_closed_loop(cls, A_r, R) -> "LyapunovPair":
        R = _square(R, "R")
        return cls(R=R, P=solve_lyapunov(A_r, R))

    def residual(self, A_r) -> float:
        A_r = _square(A_r, "A_r")
        return float(np.linalg.norm(A_r.T @ self.P + self.P @ A_r + self.R))

    def extremes(self) -> dict[str, float]:
        """lambda_min/max of P and lambda_min of R, as used by the bounds."""
        pmin, pmax = sym_eig_extremes(self.P)
        rmin, _ = sym_eig_extremes(self.R)
        return {"lam_min_P": pmin, "lam_max_P": pmax, "lam_min_R": rmin}
