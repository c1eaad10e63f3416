"""Independent reference implementations used only as test oracles.

Everything here is deliberately written from scratch against the defining
equations, not by calling the library under test, so that agreement between
the two is evidence rather than tautology.
"""

from __future__ import annotations

import math
import re

import numpy as np


def resolve_feature(name: str, expressions: dict):
    """The callable f(x_p) -> float of one named basis feature: its Python
    expression in x_p from `expressions` (the library's FEATURE_EXPRESSIONS),
    or x<k> (k >= 1) for the k-th plant state, compiled here one at a time."""
    component = re.fullmatch(r"x(\d+)", name)
    if component and int(component.group(1)) > 0:
        k = int(component.group(1)) - 1
        return lambda x_p: float(x_p[k])
    if name not in expressions:
        raise KeyError(f"unknown basis feature {name!r}")
    return eval(f"lambda x_p: {expressions[name]}", {"__builtins__": {}, "abs": abs})


def truth_at(truth, t: float) -> np.ndarray:
    """W_p(t) of an UncertaintyTruth from the Modulation definition: each entry
    is its base value times, per modulation of that entry in order, 0 before
    the start and sin t (kind "sin") or 1 (kind "step") from it on."""
    W = np.array(truth.W_p_base, dtype=float)
    for mod in truth.modulations:
        factor = 0.0 if t < mod.start else math.sin(t) if mod.kind == "sin" else 1.0
        W[mod.row, mod.col] *= factor
    return W


def project_column(theta, y, theta_max: float, eps: float) -> np.ndarray:
    """Where phi(theta) = ((eps + 1)|theta|^2 - theta_max^2) / (eps theta_max^2)
    is positive and y points outward (theta'y > 0), y less phi times its
    component along theta, the gradient direction of phi; else y."""
    phi = ((eps + 1.0) * (theta @ theta) - theta_max**2) / (eps * theta_max**2)
    if phi > 0.0 and theta @ y > 0.0:
        return y - phi * (theta @ y) / (theta @ theta) * theta
    return y


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


def optimal_xi_by_search(bound_of_xi) -> tuple[float, float]:
    """The golden-section search that optimal_xi memoises: always 200 steps
    over xi in [1e-6, 1 - 1e-6], then (xi_star, bound(xi_star))."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 1e-6, 1.0 - 1e-6
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = bound_of_xi(c), bound_of_xi(d)
    for _ in range(200):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = bound_of_xi(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = bound_of_xi(d)
    xi = 0.5 * (a + b)
    return xi, bound_of_xi(xi)


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
    """The closed loop coded from scratch: classical MRAC by default, the
    modified architecture with kappa, eta > 0 and an optional projection.

    The stacked state is [x; x_r; x_ri; e_L; vec(W_hat)], the main
    simulator's layout, and `simulate` integrates it with its own RK4.  With
    kappa = eta = 0 and no projection it is the reduction oracle of the
    classical architecture.  `W_p` is the truth matrix or a function of t,
    `projection` a (theta_max, eps_theta) pair or None.
    """

    def __init__(self, A_p, B_p, lam, W_p, basis_funcs, E_p, K, P, gamma,
                 command_func, kappa=0.0, eta=0.0, projection=None):
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
        if callable(W_p):
            self.W_p = W_p
        else:
            W_const = np.atleast_2d(np.asarray(W_p, dtype=float))
            self.W_p = lambda t: W_const
        self.basis_funcs = list(basis_funcs)
        self.s = len(self.basis_funcs)
        self.PB = np.atleast_2d(np.asarray(P, dtype=float)) @ self.B
        self.gamma = float(gamma)
        self.kappa = float(kappa)
        self.eta = float(eta)
        self.projection = projection
        self.command_func = command_func

    def sigma_p(self, x):
        return np.asarray([f(x[: self.n_p]) for f in self.basis_funcs], dtype=float)

    def sigma(self, x):
        return np.concatenate([self.sigma_p(x), x])

    def project(self, W_hat, Y):
        """`project_column` on each column."""
        return np.column_stack([project_column(W_hat[:, j], Y[:, j], *self.projection)
                                for j in range(Y.shape[1])])

    def control(self, x_m, W_hat):
        """u = -K x_m - W_hat' sigma(x_m), from the measured state x_m."""
        return -(self.K @ x_m) - W_hat.T @ self.sigma(x_m)

    def rhs(self, t, z, noise=None):
        """z' at time t.  The controller sees x + noise; the plant integrates x."""
        n = self.n
        x, x_r, x_ri, e_L = (z[i * n : (i + 1) * n] for i in range(4))
        W_hat = z[4 * n :].reshape(self.s + n, self.m)
        x_m = x if noise is None else x + noise
        sig = self.sigma(x_m)
        u = self.control(x_m, W_hat)
        delta = self.W_p(t).T @ self.sigma_p(x)
        c = np.full(self.n_c, self.command_func(t))
        e = x_m - x_r
        x_dot = self.A @ x + self.B @ (self.lam * u + delta) + self.B_r @ c
        xr_dot = self.A_r @ x_r + self.B_r @ c + self.kappa * (e - e_L)
        xri_dot = self.A_r @ x_ri + self.B_r @ c
        eL_dot = self.A_r @ e_L + self.eta * (e - e_L)
        W_dot = np.outer(sig, e @ self.PB)
        if self.projection is not None:
            W_dot = self.project(W_hat, W_dot)
        return np.concatenate([x_dot, xr_dot, xri_dot, eL_dot, self.gamma * W_dot.ravel()])

    def simulate(self, x0, x_r0, t_final, h):
        """Noise-free run from W_hat = 0, both references at x_r0 and e_L = 0."""
        n = self.n
        x_r0 = np.asarray(x_r0, dtype=float)
        z = np.concatenate([np.asarray(x0, dtype=float), x_r0, x_r0, np.zeros(n),
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
            "x_ri": zs[:, 2 * n : 3 * n],
            "e_L": zs[:, 3 * n : 4 * n],
            "W_hat": zs[:, 4 * n :].reshape(len(ts), self.s + n, self.m),
        }
