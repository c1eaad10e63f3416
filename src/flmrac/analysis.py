"""Analytical bounds, frequency-domain quantities and trajectory metrics.

This is the verification layer: transient bounds for the classical and
modified architectures, the ultimate bound under time-varying uncertainty,
the boundary-layer decay fit, the scalar loop transfer function with its
stability margins, and the spectral high-frequency content metric.  Several
routines take the hidden truth as input; they are harness-side checks, never
part of the controller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .matrixcore import LyapunovPair, sym_eig_extremes
from .plantmodel import UncertaintyTruth, aggregate_true_weights
from .simulator import Trajectory


class UnknownSignalError(KeyError):
    """The requested signal name is not in Trajectory.SIGNALS."""


def signal(traj: Trajectory, name: str) -> np.ndarray:
    """(N, d) array of one of Trajectory.SIGNALS."""
    if name not in Trajectory.SIGNALS:
        raise UnknownSignalError(name)
    return getattr(traj, name).reshape(len(traj), -1)


def linf_norm(traj: Trajectory, name: str) -> float:
    """max over samples of the max absolute component of the signal."""
    arr = signal(traj, name)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


# ---------------------------------------------------------------------------
# Transient and ultimate bounds
# ---------------------------------------------------------------------------

def bound_standard_mrac(gamma: float, P, W_tilde0, Lam) -> float:
    """Classical-architecture transient bound ||e||_Linf (requires e(0) = 0):
    ||W_tilde0 Lambda^(1/2)||_F / sqrt(gamma lambda_min(P))."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    lam_min_P, _ = sym_eig_extremes(P)
    num = _weighted_fro(W_tilde0, Lam)
    return num / math.sqrt(gamma * lam_min_P)


def bound_modified_transient(gamma: float, kappa: float, xi: float, lyap: LyapunovPair,
                      W_tilde0, Lam, e0) -> float:
    """Transient bound on ||x - x_ri||_Linf for the modified architecture.

    sqrt(eps_V / lambda_min(P)) * (1 + sqrt(kappa lambda_max(P) /
    (2 xi lambda_min(R)))) with eps_V = gamma^-1 ||W_tilde0 Lambda^(1/2)||_F^2
    + lambda_max(P) ||e0||_2^2.  Valid for any xi in (0, 1).
    """
    _check_xi(xi)
    if gamma <= 0 or kappa <= 0:
        raise ValueError("gamma and kappa must be positive")
    ex = lyap.extremes()
    e0 = np.asarray(e0, dtype=float)
    eps_v = _weighted_fro(W_tilde0, Lam) ** 2 / gamma + ex["lam_max_P"] * float(e0.dot(e0))
    second = 1.0 + math.sqrt(kappa * ex["lam_max_P"] / (2.0 * xi * ex["lam_min_R"]))
    return math.sqrt(eps_v / ex["lam_min_P"]) * second


def bound_time_varying_ultimate(gamma: float, kappa: float, eta: float, xi: float,
                      lyap: LyapunovPair, Lam, w_tilde_max: float,
                      w_dot_max: float) -> float:
    """Ultimate bound on ||x - x_ri||_Linf under bounded time-varying truth.

    Uses rho_V = gamma^-1 ||Lambda||_F w_tilde_max^2 (1 + 4 gamma^-1
    ||Lambda||_F w_dot_max^2 lambda_min(R)^-2 [1 + eta kappa^-1 lambda_max(P)
    + 0.5 kappa lambda_max(P)^2 lambda_min(R) xi^-1 (1 - xi)^-2]).
    """
    _check_xi(xi)
    if gamma <= 0 or kappa <= 0 or eta < 0:
        raise ValueError("gamma, kappa must be positive and eta nonnegative")
    if w_tilde_max < 0 or w_dot_max < 0:
        raise ValueError("norm bounds must be nonnegative")
    ex = lyap.extremes()
    lam_f = float(np.linalg.norm(np.atleast_1d(np.asarray(Lam, dtype=float))))
    bracket = (
        1.0
        + eta / kappa * ex["lam_max_P"]
        + 0.5 * kappa * ex["lam_max_P"] ** 2 * ex["lam_min_R"] / (xi * (1.0 - xi) ** 2)
    )
    rho_v = (lam_f * w_tilde_max**2 / gamma) * (
        1.0 + 4.0 * lam_f * w_dot_max**2 / (gamma * ex["lam_min_R"] ** 2) * bracket
    )
    second = 1.0 + math.sqrt(kappa * ex["lam_max_P"] / (2.0 * xi * ex["lam_min_R"]))
    return math.sqrt(rho_v / ex["lam_min_P"]) * second


def aggregated_truth_bounds(truth: UncertaintyTruth, Lam, K,
                            theta_max: float) -> tuple[float, float]:
    """(w_tilde_max, w_dot_max) for the ultimate bound, derived from the truth,
    Lambda, K and the projection radius.

    The estimate norm is capped at theta_max per column, so w_tilde_max =
    theta_max sqrt(m) + sup over t >= 0 of ||W(t)||_F.  Every modulation
    factor lies in [-1, 1], and all of them are 1 together at t = pi/2 + 2 pi k
    past the last start, so that supremum is ||W||_F of the truth without its
    modulations.  The aggregated truth rate is the plant truth rate amplified
    by the worst channel of Lambda^-1.
    """
    lam = np.atleast_1d(np.asarray(Lam, dtype=float))
    W = aggregate_true_weights(replace(truth, modulations=()), lam, K)
    w_tilde_max = theta_max * math.sqrt(lam.size) + float(np.linalg.norm(W))
    return w_tilde_max, float(np.max(1.0 / lam)) * truth.w_p_dot_max


#: Upper end of the admissible xi in (0, 1).  The modified transient bound depends on xi
#: only through 1 + sqrt(kappa lambda_max(P) / (2 xi lambda_min(R))), so it is tightest here.
XI_MAX = 1.0 - 1e-6


def optimal_xi(bound_of_xi) -> tuple[float, float]:
    """Golden-section minimizer of a bound over xi in [1e-6, XI_MAX].

    Returns (xi_star, bound(xi_star)), the result of 200 golden-section steps.
    For bounds monotone in xi the search converges to the admissible boundary,
    which is the tightest choice.

    bound_of_xi must be pure: the same xi always gives the same value.  The
    search memoises it, and in floating point its bracket ends in a fixed point
    or a short cycle, so the 200 steps evaluate the bound at few distinct xi
    (77 for the transient bound of a typical design).
    """
    f = functools.cache(bound_of_xi)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 1e-6, XI_MAX
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    xi = 0.5 * (a + b)
    return xi, f(xi)


def _weighted_fro(W, Lam) -> float:
    """||W Lambda^(1/2)||_F for diagonal Lambda given by its entries; inf if an
    entry of W Lambda^(1/2) overflows."""
    # np.atleast_2d and np.atleast_1d cost more than the norm of a small W: call them
    # only where they change the shape.
    W = np.asarray(W, dtype=float)
    if W.ndim < 2:
        W = np.atleast_2d(W)
    lam = np.asarray(Lam, dtype=float)
    if lam.ndim < 1:
        lam = np.atleast_1d(lam)
    lam_list = lam.tolist()
    if not all(0.0 <= v < math.inf for v in lam_list):
        raise ValueError("Lambda entries must be finite and nonnegative")
    w_list = W.ravel().tolist()
    w_sum = sum(map(abs, w_list))  # inf or NaN if an entry is, or if the sum overflows
    if not w_sum < math.inf and not all(map(math.isfinite, w_list)):
        raise ValueError("W entries must be finite")
    # A bound on every squared entry of W Lambda^(1/2), in Python floats, which
    # overflow without a warning; x.size <= W.size * lam.size.
    if w_sum * w_sum * max(lam_list, default=0.0) * W.size * lam.size < 1e308:
        x = (W * np.sqrt(lam)).ravel(order="K")
        return math.sqrt(x.dot(x))  # np.linalg.norm's formula, summed in the same order
    with np.errstate(over="ignore"):
        x = (W * np.sqrt(lam)[np.newaxis, :]).ravel(order="K")
        ss = x.dot(x)
    # The plain sum, unless finite entries overflowed it: then math.hypot, which does not.
    return math.sqrt(ss) if ss < math.inf else math.hypot(*x.tolist())


def _check_xi(xi: float) -> None:
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must lie in (0, 1), got {xi}")


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation against an observed trajectory extreme."""

    kind: str
    bound_value: float
    observed: float
    inputs: dict
    satisfied: bool

    @classmethod
    def make(cls, kind: str, bound_value: float, observed: float, inputs: dict) -> "BoundReport":
        return cls(kind=kind, bound_value=bound_value, observed=observed,
                   inputs=inputs, satisfied=bool(observed <= bound_value))


# ---------------------------------------------------------------------------
# Composite Lyapunov function along a trajectory
# ---------------------------------------------------------------------------

def composite_lyapunov(traj: Trajectory, lyap: LyapunovPair, gamma: float,
                       kappa: float, eta: float, xi: float, Lam,
                       W_true) -> np.ndarray:
    """V* per recorded sample for a constant-truth run.

    V* = e'Pe + gamma^-1 ||W_tilde Lambda^(1/2)||_F^2
       + eta^-1 kappa e_L' P e_L
       + 2 xi lambda_min(R) / (kappa lambda_max(P)) x_tilde' P x_tilde,
    with W_tilde(t) the recorded estimate minus the aggregated truth and
    x_tilde = x_r - x_ri.  Requires kappa > 0 and eta > 0.
    """
    _check_xi(xi)
    if kappa <= 0 or eta <= 0:
        raise ValueError("composite function needs kappa > 0 and eta > 0")
    P = lyap.P
    ex = lyap.extremes()
    w_coeff = 2.0 * xi * ex["lam_min_R"] / (kappa * ex["lam_max_P"])
    W_true = np.atleast_2d(np.asarray(W_true, dtype=float))
    e, e_L, x_tilde = traj.e, traj.e_L, traj.x_tilde

    out = np.empty(len(traj))
    for i in range(len(traj)):
        out[i] = (
            e[i] @ P @ e[i]
            + _weighted_fro(traj.W_hat[i] - W_true, Lam) ** 2 / gamma
            + kappa / eta * (e_L[i] @ P @ e_L[i])
            + w_coeff * (x_tilde[i] @ P @ x_tilde[i])
        )
    return out


# ---------------------------------------------------------------------------
# Boundary-layer decay
# ---------------------------------------------------------------------------

def decay_fit(traj: Trajectory, t_window: float) -> tuple[float, float]:
    """Fit the fast decay of ||e_H|| and measure its post-transient floor.

    Least-squares fit of log ||e_H(t)||_2 over t <= t_window gives the decay
    rate (per second); the residual floor is max ||e_H||_2 over
    t >= 5 * t_window.  Needs ||e_H(0)|| > 0 and at least 10 samples in the
    fit window.
    """
    norms_eh = np.linalg.norm(traj.e_H, axis=1)
    if norms_eh[0] <= 0:
        raise ValueError("decay fit needs a nonzero initial high-frequency error")
    mask = traj.t <= t_window
    if int(np.count_nonzero(mask)) < 10:
        raise ValueError("fit window too short: fewer than 10 samples")
    ts = traj.t[mask]
    vals = norms_eh[mask]
    if np.any(vals <= 0):
        raise ValueError("||e_H|| reaches zero inside the fit window")
    slope, _ = np.polyfit(ts, np.log(vals), 1)
    tail = norms_eh[traj.t >= 5.0 * t_window]
    floor = float(np.max(tail)) if tail.size else 0.0
    return float(-slope), floor


# ---------------------------------------------------------------------------
# Loop transfer function and margins (scalar first-order design case)
# ---------------------------------------------------------------------------

def _check_loop(gamma: float, kappa: float, eta: float, alpha: float, omega=None) -> None:
    """Domain of the scalar loop: finite gamma > 0, alpha > 0, kappa >= 0 and
    eta >= 0, and every given omega > 0 (the integrator pole sits at zero)."""
    for name, value, positive in (("gamma", gamma, True), ("kappa", kappa, False),
                                  ("eta", eta, False), ("alpha", alpha, True)):
        if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
            rule = "positive" if positive else "nonnegative"
            raise ValueError(f"{name} must be finite and {rule}, got {value!r}")
    if omega is not None and not np.all(np.asarray(omega) > 0.0):
        raise ValueError("omega must be positive (integrator pole at zero)")


def loop_transfer(gamma: float, kappa: float, eta: float, alpha: float, omega):
    """Loop gain G(j omega) of the scalar design case, broken at the input:
    (gamma / s) ((s + alpha + eta) / (s + alpha + kappa + eta)) (alpha / (s + alpha)).
    omega is one frequency or an array of them.
    """
    _check_loop(gamma, kappa, eta, alpha, omega)
    s = 1j * omega
    return (gamma / s) * ((s + alpha + eta) / (s + alpha + kappa + eta)) * (alpha / (s + alpha))


def loop_phase(gamma: float, kappa: float, eta: float, alpha: float, omega):
    """Unwrapped phase of G(j omega) in radians, assembled factor by factor;
    omega is one frequency or an array of them."""
    _check_loop(gamma, kappa, eta, alpha, omega)
    return (
        -0.5 * math.pi
        + np.arctan2(omega, alpha + eta)
        - np.arctan2(omega, alpha + kappa + eta)
        - np.arctan2(omega, alpha)
    )


class NoCrossoverError(RuntimeError):
    """|G| does not cross unity inside MARGIN_BAND."""


@dataclass(frozen=True)
class MarginReport:
    """Crossover-based stability margins of the scalar loop."""

    gain_crossover: float      # rad/s
    phase_margin: float        # degrees
    delay_margin: float        # seconds = phase margin (rad) / crossover
    low_freq_gain: float       # dB at the low-frequency band edge
    high_freq_gain: float      # dB at the high-frequency reference point

    def as_dict(self) -> dict:
        return {
            "gain_crossover_rad_s": self.gain_crossover,
            "phase_margin_deg": self.phase_margin,
            "delay_margin_s": self.delay_margin,
            "low_freq_gain_db": self.low_freq_gain,
            "high_freq_gain_db": self.high_freq_gain,
        }


#: Band edge of the low-frequency disturbance-rejection figure of merit (rad/s).
LOW_FREQ_EDGE = 5.0 / (2.0 * math.pi)
#: Reference point for the measurement-noise amplification figure (rad/s).
HIGH_FREQ_POINT = 100.0
#: Frequencies (rad/s) where margins accepts a gain crossover: bode's default range.
MARGIN_BAND = (1e-3, 1e4)


def band_gains_db(gamma: float, kappa: float, eta: float, alpha: float) -> tuple[float, float]:
    """|G| in dB at LOW_FREQ_EDGE and at HIGH_FREQ_POINT."""
    g = loop_transfer(gamma, kappa, eta, alpha, np.array([LOW_FREQ_EDGE, HIGH_FREQ_POINT]))
    low, high = 20.0 * np.log10(np.abs(g))
    return float(low), float(high)


def margins(gamma: float, kappa: float, eta: float, alpha: float) -> MarginReport:
    """Gain crossover in closed form, plus phase/delay margins and band gains.

    With u = omega^2, a = alpha + kappa + eta, b = alpha, c = alpha + eta, |G| = 1
    is u^3 + (a^2 + b^2) u^2 + (a^2 - gamma^2) b^2 u - gamma^2 b^2 c^2 = 0.  Its
    coefficient signs (+, +, +/-, -) change once, so by Descartes' rule the loop has
    exactly one gain crossover: the cubic's only root with a positive real part,
    polished by one Newton step.  Raises NoCrossoverError if it lies outside MARGIN_BAND.
    """
    _check_loop(gamma, kappa, eta, alpha)
    a2, b2, c2, g2 = (alpha + kappa + eta) ** 2, alpha**2, (alpha + eta) ** 2, gamma**2
    coeffs = (1.0, a2 + b2, a2 * b2 - g2 * b2, -g2 * b2 * c2)
    u = float(np.max(np.roots(coeffs).real))
    u -= np.polyval(coeffs, u) / np.polyval((3.0, 2.0 * coeffs[1], coeffs[2]), u)
    wc = math.sqrt(u)
    lo, hi = MARGIN_BAND
    if not lo <= wc <= hi:
        raise NoCrossoverError(f"the gain crossover {wc:g} rad/s lies outside "
                               f"[{lo:g}, {hi:g}] rad/s")
    pm_rad = math.pi + float(loop_phase(gamma, kappa, eta, alpha, wc))
    low_gain, high_gain = band_gains_db(gamma, kappa, eta, alpha)
    return MarginReport(
        gain_crossover=wc,
        phase_margin=math.degrees(pm_rad),
        delay_margin=pm_rad / wc,
        low_freq_gain=low_gain,
        high_freq_gain=high_gain,
    )


# ---------------------------------------------------------------------------
# Spectral high-frequency content
# ---------------------------------------------------------------------------

#: Fewest samples spectrum_fraction_above accepts.
MIN_SPECTRUM_SAMPLES = 64


def spectrum_fraction_above(t, values, cutoff: float) -> float:
    """Fraction of non-DC discrete-spectrum energy above `cutoff` rad/s.

    The signal must be uniformly sampled at a positive step, with MIN_SPECTRUM_SAMPLES
    or more samples, one per time; the whole record is transformed, and channel
    energies summed.  The cutoff must be finite and nonnegative.
    """
    if not 0.0 <= cutoff < math.inf:
        raise ValueError(f"cutoff must be finite and nonnegative, got {cutoff}")
    t = np.asarray(t, dtype=float)
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, np.newaxis]
    if v.shape[0] != t.size:
        raise ValueError(f"{t.size} times but {v.shape[0]} samples")
    if t.size < MIN_SPECTRUM_SAMPLES:
        raise ValueError(f"need at least {MIN_SPECTRUM_SAMPLES} samples for a spectral estimate")
    dts = np.diff(t)
    dt = float(dts[0])
    if not (dt > 0.0 and float(np.max(np.abs(dts - dt))) <= 1e-9 * max(dt, 1.0)):
        raise ValueError("signal is not uniformly sampled")

    omega = 2.0 * math.pi * np.abs(np.fft.fftfreq(v.shape[0], d=dt))
    energy_hi = 0.0
    energy_all = 0.0
    for j in range(v.shape[1]):
        spec = np.abs(np.fft.fft(v[:, j])) ** 2
        energy_all += float(np.sum(spec[1:]))
        energy_hi += float(np.sum(spec[omega > cutoff]))  # cutoff >= 0 leaves out DC
    if energy_all == 0.0:
        return 0.0
    return energy_hi / energy_all


def hf_content(traj: Trajectory, cutoff: float) -> float:
    """spectrum_fraction_above applied to the recorded control u."""
    return spectrum_fraction_above(traj.t, traj.u, cutoff)
