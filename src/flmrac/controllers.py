"""Nominal and adaptive control laws, the weight update law, and the
norm-ball projection operator that keeps weight estimates bounded under
time-varying uncertainty."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrixcore import DimensionError, LyapunovPair


@dataclass(frozen=True)
class ProjectionSpec:
    """Norm ball for the projection operator.

    phi(theta) = ((eps_theta + 1) theta'theta - theta_max^2) / (eps_theta theta_max^2)
    is negative strictly inside ||theta|| = theta_max / sqrt(eps_theta + 1) and
    reaches 1 at ||theta|| = theta_max; projection confines each weight column
    to that outer radius.
    """

    theta_max: float
    eps_theta: float

    def __post_init__(self):
        if self.theta_max <= 0 or self.eps_theta <= 0:
            raise ValueError("theta_max and eps_theta must be positive")


def phi(theta, spec: ProjectionSpec) -> float:
    """Convex boundary function of the projection ball."""
    theta = np.asarray(theta, dtype=float)
    tmax2 = spec.theta_max**2
    return float(((spec.eps_theta + 1.0) * theta @ theta - tmax2) / (spec.eps_theta * tmax2))


def phi_grad(theta, spec: ProjectionSpec) -> np.ndarray:
    """Analytic gradient of phi, as a row vector: 2 (eps+1) theta' / (eps theta_max^2)."""
    theta = np.asarray(theta, dtype=float)
    return (2.0 * (spec.eps_theta + 1.0) / (spec.eps_theta * spec.theta_max**2)) * theta


def proj(theta, y, spec: ProjectionSpec) -> np.ndarray:
    """Project the raw update direction y at the current estimate theta.

    Passes y through while phi(theta) < 0 or while y does not point outward
    (phi'(theta) y <= 0); otherwise removes the outward radial component
    scaled by phi(theta), which vanishes continuously at the inner boundary
    and cancels the radial motion entirely at ||theta|| = theta_max.
    """
    theta = np.asarray(theta, dtype=float)
    y = np.asarray(y, dtype=float)
    if theta.shape != y.shape:
        raise DimensionError(f"theta {theta.shape} and y {y.shape} must match")
    return proj_matrix(theta[:, np.newaxis], y[:, np.newaxis], spec)[:, 0]


def proj_matrix(Theta, Y, spec: ProjectionSpec) -> np.ndarray:
    """Column-wise `proj` for matrix estimates.

    phi and its gradient are inlined (same arithmetic as `phi` and
    `phi_grad`), and columns strictly inside the ball skip the rest.
    """
    Theta = np.asarray(Theta, dtype=float)
    out = np.array(Y, dtype=float)
    if Theta.shape != out.shape:
        raise DimensionError(f"Theta {Theta.shape} and Y {out.shape} must match")
    eps1 = spec.eps_theta + 1.0
    tmax2 = spec.theta_max**2
    grad_scale = 2.0 * eps1 / (spec.eps_theta * tmax2)
    for j in range(out.shape[1]):
        theta = Theta[:, j]
        f = float(((eps1 * theta).dot(theta) - tmax2) / (spec.eps_theta * tmax2))
        if f < 0.0:
            continue
        y = out[:, j]
        g = grad_scale * theta
        gy = float(g.dot(y))
        # g = 0 cannot reach the division: it needs theta = 0, where phi < 0.
        if gy > 0.0:
            out[:, j] = y - g * (gy / float(g.dot(g))) * f
    return out


def control(x, sigma, W_hat, K) -> np.ndarray:
    """Total control u = -K x - W_hat' sigma (nominal plus adaptive)."""
    x = np.asarray(x, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    W_hat = np.atleast_2d(np.asarray(W_hat, dtype=float))
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if K.shape[1] != x.size:
        raise DimensionError(f"K is {K.shape}, x has length {x.size}")
    if W_hat.shape[0] != sigma.size or W_hat.shape[1] != K.shape[0]:
        raise DimensionError(f"W_hat is {W_hat.shape}, expected ({sigma.size}, {K.shape[0]})")
    return -(K @ x) - W_hat.T @ sigma


def update_deriv(W_hat, sigma, e, lyap: LyapunovPair, B, gamma: float,
                 projection: ProjectionSpec | None = None) -> np.ndarray:
    """Weight-estimate rate: gamma * sigma e'PB, optionally projected.

    With a ProjectionSpec the raw direction is pushed through the column-wise
    projection at the current estimate before scaling by gamma.
    """
    sigma = np.asarray(sigma, dtype=float)
    e = np.asarray(e, dtype=float)
    W_hat = np.atleast_2d(np.asarray(W_hat, dtype=float))
    PB = lyap.P @ np.atleast_2d(np.asarray(B, dtype=float))
    if e.size != PB.shape[0]:
        raise DimensionError(f"e has length {e.size}, P B has {PB.shape[0]} rows")
    Y = np.outer(sigma, e @ PB)
    if W_hat.shape != Y.shape:
        raise DimensionError(f"W_hat is {W_hat.shape}, update direction is {Y.shape}")
    if projection is not None:
        return gamma * proj_matrix(W_hat, Y, projection)
    return gamma * Y


@dataclass(frozen=True)
class ControllerConfig:
    """Gains, Lyapunov pair and options of one adaptive controller.

    kappa = eta = 0 with no projection is the classical architecture; kappa > 0
    adds the reference-system mismatch term and eta > 0 the low-pass error
    filter that keeps the update law driven by low-frequency error content.
    """

    K: np.ndarray
    gamma: float
    kappa: float
    eta: float
    lyap: LyapunovPair
    projection: ProjectionSpec | None = None
    W_hat0: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "K", np.atleast_2d(np.asarray(self.K, dtype=float)))
        if self.W_hat0 is not None:
            object.__setattr__(self, "W_hat0", np.atleast_2d(np.asarray(self.W_hat0, dtype=float)))
        if self.gamma <= 0:
            raise ValueError("learning rate gamma must be positive")
        if self.kappa < 0 or self.eta < 0:
            raise ValueError("kappa and eta must be nonnegative")
        if self.projection is not None and self.W_hat0 is not None:
            col_norms = np.linalg.norm(self.W_hat0, axis=0)
            if np.any(col_norms > self.projection.theta_max):
                raise ValueError("initial estimate columns must lie inside theta_max")

    def initial_estimate(self, rows: int, cols: int) -> np.ndarray:
        """W_hat(0): a copy of W_hat0 (ScenarioConfig checks its shape), else zeros."""
        if self.W_hat0 is None:
            return np.zeros((rows, cols))
        return self.W_hat0.copy()
