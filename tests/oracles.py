"""Independent reference implementations used only as test oracles.

Everything here is deliberately written from scratch against the defining
equations, not by calling the library under test, so that agreement between
the two is evidence rather than tautology.
"""

from __future__ import annotations

import math

import numpy as np


def cubic_symmetric_eigs(S: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric 3x3 matrix via its characteristic cubic.

    Coefficients come from the trace/minor expansion; roots from numpy's
    polynomial companion solver, which never touches the symmetric
    eigensolver under test.
    """
    S = np.asarray(S, dtype=float)
    assert S.shape == (3, 3)
    c2 = -np.trace(S)
    minors = (
        S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
        + S[0, 0] * S[2, 2] - S[0, 2] * S[2, 0]
        + S[1, 1] * S[2, 2] - S[1, 2] * S[2, 1]
    )
    c1 = minors
    c0 = -np.linalg.det(S)
    roots = np.roots([1.0, c2, c1, c0])
    return np.sort(roots.real)


def loop_transfer_rational(gamma, kappa, eta, alpha, omega) -> complex:
    """Loop gain evaluated as a single rational function of s = j omega."""
    s = 1j * omega
    num = gamma * (s + alpha + eta) * alpha
    den = s * (s + alpha + kappa + eta) * (s + alpha)
    return num / den


def loop_phase_factors(gamma, kappa, eta, alpha, omega) -> float:
    """Phase of G(j omega) in radians, summed over the factors' phases."""
    return (-0.5 * math.pi + math.atan2(omega, alpha + eta)
            - math.atan2(omega, alpha + kappa + eta) - math.atan2(omega, alpha))


def margins_by_search(gamma, kappa, eta, alpha, band=(1e-3, 1e4)):
    """(gain crossover, phase margin in degrees, delay margin in s), or None.

    The search the closed-form crossover replaced: |G| - 1 is scanned on 200
    log-spaced points, every sign change is bisected 60 times, and the
    crossover with the smallest delay margin is kept.  None means |G| does not
    cross unity in the band.
    """
    def excess(w):
        return abs(loop_transfer_rational(gamma, kappa, eta, alpha, w)) - 1.0

    grid = np.logspace(math.log10(band[0]), math.log10(band[1]), 200)
    signs = np.sign([excess(w) for w in grid])
    best = None
    for i in np.where(np.diff(signs) != 0)[0]:
        a, b = grid[i], grid[i + 1]
        fa = excess(a)
        for _ in range(60):
            mid = math.sqrt(a * b)
            fm = excess(mid)
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
        wc = math.sqrt(a * b)
        pm_rad = math.pi + loop_phase_factors(gamma, kappa, eta, alpha, wc)
        if best is None or pm_rad / wc < best[2]:
            best = (wc, math.degrees(pm_rad), pm_rad / wc)
    return best


def bound_transient_modified(gamma, kappa, xi, lam_min_P, lam_max_P, lam_min_R,
                             w_weighted_fro, e0_norm) -> float:
    """Hand substitution of the modified-architecture transient bound."""
    eps_v = w_weighted_fro**2 / gamma + lam_max_P * e0_norm**2
    return math.sqrt(eps_v / lam_min_P) * (
        1.0 + math.sqrt(kappa * lam_max_P / (2.0 * xi * lam_min_R)))


def bound_ultimate_time_varying(gamma, kappa, eta, xi, lam_min_P, lam_max_P,
                                lam_min_R, lam_fro, w_tilde_max, w_dot_max) -> float:
    """Hand substitution of the time-varying ultimate bound."""
    bracket = (1.0
               + eta * lam_max_P / kappa
               + 0.5 * kappa * lam_max_P**2 * lam_min_R / (xi * (1.0 - xi)**2))
    rho = (lam_fro * w_tilde_max**2 / gamma) * (
        1.0 + 4.0 * lam_fro * w_dot_max**2 * bracket / (gamma * lam_min_R**2))
    return math.sqrt(rho / lam_min_P) * (
        1.0 + math.sqrt(kappa * lam_max_P / (2.0 * xi * lam_min_R)))


class PlainMracSimulator:
    """Classical MRAC (ideal reference, unfiltered error) coded from scratch.

    Integrates the stacked [x, x_r, W_hat] with its own RK4; serves as the
    reduction oracle for kappa = eta = 0 runs of the main simulator.
    """

    def __init__(self, A_p, B_p, lam, W_p, basis_funcs, E_p, K, P, gamma,
                 command_func):
        A_p = np.atleast_2d(np.asarray(A_p, dtype=float))
        B_p = np.atleast_2d(np.asarray(B_p, dtype=float))
        E_p = np.atleast_2d(np.asarray(E_p, dtype=float))
        self.n_p = A_p.shape[0]
        self.n_c = E_p.shape[0] if E_p.size else 0
        self.m = B_p.shape[1]
        n = self.n_p + self.n_c
        self.n = n
        self.A = np.zeros((n, n))
        self.A[: self.n_p, : self.n_p] = A_p
        if self.n_c:
            self.A[self.n_p :, : self.n_p] = E_p
        self.B = np.vstack([B_p, np.zeros((self.n_c, self.m))])
        self.B_r = np.vstack([np.zeros((self.n_p, self.n_c)), -np.eye(self.n_c)])
        self.K = np.atleast_2d(np.asarray(K, dtype=float))
        self.A_r = self.A - self.B @ self.K
        self.lam = np.atleast_1d(np.asarray(lam, dtype=float))
        self.W_p = np.atleast_2d(np.asarray(W_p, dtype=float))
        self.basis_funcs = list(basis_funcs)
        self.s = len(self.basis_funcs)
        self.PB = np.atleast_2d(np.asarray(P, dtype=float)) @ self.B
        self.gamma = float(gamma)
        self.command_func = command_func

    def sigma(self, t, x):
        plant_part = [f(t, x[: self.n_p]) for f in self.basis_funcs]
        return np.concatenate([np.asarray(plant_part, dtype=float), x])

    def rhs(self, t, z):
        n = self.n
        x = z[:n]
        x_r = z[n : 2 * n]
        W_hat = z[2 * n :].reshape(self.s + n, self.m)
        sig = self.sigma(t, x)
        u = -(self.K @ x) - W_hat.T @ sig
        delta = self.W_p.T @ np.asarray(
            [f(t, x[: self.n_p]) for f in self.basis_funcs], dtype=float)
        c = np.full(self.n_c, self.command_func(t))
        x_dot = self.A @ x + self.B @ (self.lam * u + delta) + self.B_r @ c
        xr_dot = self.A_r @ x_r + self.B_r @ c
        e = x - x_r
        W_dot = self.gamma * np.outer(sig, e @ self.PB)
        return np.concatenate([x_dot, xr_dot, W_dot.ravel()])

    def simulate(self, x0, x_r0, t_final, h):
        n = self.n
        z = np.concatenate([np.asarray(x0, dtype=float),
                            np.asarray(x_r0, dtype=float),
                            np.zeros((self.s + n) * self.m)])
        steps = int(round(t_final / h))
        ts = [0.0]
        zs = [z.copy()]
        for k in range(steps):
            t = k * h
            k1 = self.rhs(t, z)
            k2 = self.rhs(t + h / 2.0, z + h / 2.0 * k1)
            k3 = self.rhs(t + h / 2.0, z + h / 2.0 * k2)
            k4 = self.rhs(t + h, z + h * k3)
            z = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ts.append((k + 1) * h)
            zs.append(z.copy())
        zs = np.asarray(zs)
        return {
            "t": np.asarray(ts),
            "x": zs[:, :n],
            "x_r": zs[:, n : 2 * n],
            "W_hat": zs[:, 2 * n :].reshape(len(ts), self.s + n, self.m),
        }
