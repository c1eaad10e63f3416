"""Norm-ball projection keeping weight estimates bounded, and the controller
configuration; the control and update laws are in `simulator.ClosedLoopSystem`."""

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
        if not (0.0 < self.theta_max < np.inf and 0.0 < self.eps_theta < np.inf):
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


def proj_matrix(Theta, Y, spec: ProjectionSpec) -> np.ndarray:
    """Project each column y of the raw update Y at its estimate column theta.

    Passes y through while phi(theta) < 0 or while y does not point outward
    (phi'(theta) y <= 0); otherwise removes the outward radial component
    scaled by phi(theta), which vanishes continuously at the inner boundary
    and cancels the radial motion entirely at ||theta|| = theta_max.  phi and
    its gradient are inlined (same arithmetic as `phi` and `phi_grad`), and
    columns strictly inside the ball skip the rest.
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


@dataclass(frozen=True)
class ControllerConfig:
    """Gains, Lyapunov pair and options of one adaptive controller.

    kappa = eta = 0 with no projection is the classical architecture; kappa > 0
    adds the reference-system mismatch term and eta > 0 the low-pass error
    filter that keeps the update law driven by low-frequency error content.
    """

    K: np.ndarray
    gamma: float
    lyap: LyapunovPair
    kappa: float = 0.0
    eta: float = 0.0
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
