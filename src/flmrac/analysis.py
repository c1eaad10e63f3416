"""Analytical bounds, frequency-domain quantities and trajectory metrics.

This is the verification layer: transient bounds for the classical and
modified architectures, the ultimate bound under time-varying uncertainty,
the boundary-layer decay fit, the scalar loop transfer function with its
stability margins, and the spectral high-frequency content metric.  Several
routines take the hidden truth as input; they are harness-side checks, never
part of the controller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrixcore import LyapunovPair, sym_eig_extremes
from .simulator import Trajectory


class UnknownSignalError(KeyError):
    """The requested signal name is not recorded in the trajectory."""


#: Stored trajectory signals plus the derived ones used by the bound checks.
_DERIVED_SIGNALS = {
    "x_err_ideal": lambda tr: tr.x - tr.x_ri,  # x - x_ri, the transient-bound subject
    "x_tilde": lambda tr: tr.x_r - tr.x_ri,    # deviation of the modified reference
}
_STORED_SIGNALS = ("x", "x_r", "x_ri", "e", "e_L", "e_H", "u", "c")


def signal(traj: Trajectory, name: str) -> np.ndarray:
    """(N, d) array of one stored or derived trajectory signal."""
    if name in _STORED_SIGNALS:
        arr = getattr(traj, name)
    elif name in _DERIVED_SIGNALS:
        arr = _DERIVED_SIGNALS[name](traj)
    else:
        raise UnknownSignalError(name)
    return arr.reshape(len(traj), -1)


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
    eps_v = _weighted_fro(W_tilde0, Lam) ** 2 / gamma + ex["lam_max_P"] * float(e0 @ e0)
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


def aggregated_truth_bounds(w_max: float, w_p_dot_max: float, Lam,
                            theta_max: float, m: int) -> tuple[float, float]:
    """(w_tilde_max, w_dot_max) for the ultimate bound, from the configured
    truth and the projection radius.

    The estimate norm is capped at theta_max per column, so
    w_tilde_max = theta_max sqrt(m) + w_max; the aggregated truth rate is the
    plant truth rate amplified by the worst channel of Lambda^-1.
    """
    lam = np.atleast_1d(np.asarray(Lam, dtype=float))
    return theta_max * math.sqrt(m) + w_max, float(np.max(1.0 / lam)) * w_p_dot_max


def optimal_xi(bound_of_xi, lo: float = 1e-6, hi: float = 1.0 - 1e-6,
               iters: int = 200) -> tuple[float, float]:
    """Golden-section minimizer of a bound over xi in (0, 1).

    Returns (xi_star, bound(xi_star)).  For bounds monotone in xi the search
    converges to the admissible boundary, which is the tightest choice.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = bound_of_xi(c), bound_of_xi(d)
    for _ in range(iters):
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


def _weighted_fro(W, Lam) -> float:
    """||W Lambda^(1/2)||_F for diagonal Lambda given by its entries."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    lam = np.atleast_1d(np.asarray(Lam, dtype=float))
    if np.any(lam < 0):
        raise ValueError("Lambda entries must be nonnegative")
    return float(np.linalg.norm(W * np.sqrt(lam)[np.newaxis, :]))


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
    lam_sqrt = np.sqrt(np.atleast_1d(np.asarray(Lam, dtype=float)))
    W_true = np.atleast_2d(np.asarray(W_true, dtype=float))
    x_tilde = traj.x_r - traj.x_ri

    out = np.empty(len(traj))
    for i in range(len(traj)):
        e = traj.e[i]
        e_L = traj.e_L[i]
        W_t = traj.W_hat[i] - W_true
        out[i] = (
            e @ P @ e
            + np.linalg.norm(W_t * lam_sqrt[np.newaxis, :]) ** 2 / gamma
            + kappa / eta * (e_L @ P @ e_L)
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

def loop_transfer(gamma: float, kappa: float, eta: float, alpha: float,
                  omega: float) -> complex:
    """Loop gain G(j omega) of the scalar design case, broken at the input:
    (gamma / s) ((s + alpha + eta) / (s + alpha + kappa + eta)) (alpha / (s + alpha)).
    """
    if omega <= 0:
        raise ValueError("omega must be positive (integrator pole at zero)")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    s = 1j * omega
    return (gamma / s) * ((s + alpha + eta) / (s + alpha + kappa + eta)) * (alpha / (s + alpha))


def loop_phase(gamma: float, kappa: float, eta: float, alpha: float,
               omega: float) -> float:
    """Unwrapped phase of G(j omega) in radians, assembled factor by factor."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return (
        -0.5 * math.pi
        + math.atan2(omega, alpha + eta)
        - math.atan2(omega, alpha + kappa + eta)
        - math.atan2(omega, alpha)
    )


class NoCrossoverError(RuntimeError):
    """|G| never crosses unity in the searched band."""


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


def margins(gamma: float, kappa: float, eta: float, alpha: float,
            band: tuple[float, float] = (1e-3, 1e4)) -> MarginReport:
    """Gain-crossover search plus phase/delay margins and band gains.

    |G| is probed on 200 log-spaced points to bracket every unity crossing,
    each bracket is bisected 60 times, and the crossover with the smallest
    delay margin is reported (the conservative one).  Raises NoCrossoverError
    if |G| never crosses unity in the band.
    """
    lo, hi = band
    grid = np.logspace(math.log10(lo), math.log10(hi), 200)
    mags = np.array([abs(loop_transfer(gamma, kappa, eta, alpha, w)) for w in grid])
    signs = np.sign(mags - 1.0)
    idx = np.where(np.diff(signs) != 0)[0]
    if idx.size == 0:
        raise NoCrossoverError(f"|G| has no unity crossing in [{lo:g}, {hi:g}] rad/s")

    best: MarginReport | None = None
    for i in idx:
        a, b = grid[i], grid[i + 1]
        fa = abs(loop_transfer(gamma, kappa, eta, alpha, a)) - 1.0
        for _ in range(60):
            mid = math.sqrt(a * b)
            fm = abs(loop_transfer(gamma, kappa, eta, alpha, mid)) - 1.0
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
        wc = math.sqrt(a * b)
        pm_rad = math.pi + loop_phase(gamma, kappa, eta, alpha, wc)
        report = MarginReport(
            gain_crossover=wc,
            phase_margin=math.degrees(pm_rad),
            delay_margin=pm_rad / wc,
            low_freq_gain=20.0 * math.log10(abs(loop_transfer(gamma, kappa, eta, alpha, LOW_FREQ_EDGE))),
            high_freq_gain=20.0 * math.log10(abs(loop_transfer(gamma, kappa, eta, alpha, HIGH_FREQ_POINT))),
        )
        if best is None or report.delay_margin < best.delay_margin:
            best = report
    return best


# ---------------------------------------------------------------------------
# Spectral high-frequency content
# ---------------------------------------------------------------------------

def spectrum_fraction_above(t, values, cutoff: float) -> float:
    """Fraction of non-DC discrete-spectrum energy above `cutoff` rad/s.

    The signal must be uniformly sampled with at least 64 samples; the whole
    record is transformed.  Multi-channel input sums channel energies.
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, np.newaxis]
    if t.size < 64:
        raise ValueError("need at least 64 samples for a spectral estimate")
    dts = np.diff(t)
    if float(np.max(np.abs(dts - dts[0]))) > 1e-9 * max(dts[0], 1.0):
        raise ValueError("signal is not uniformly sampled")
    dt = float(dts[0])

    omega = 2.0 * math.pi * np.abs(np.fft.fftfreq(v.shape[0], d=dt))
    energy_hi = 0.0
    energy_all = 0.0
    for j in range(v.shape[1]):
        spec = np.abs(np.fft.fft(v[:, j])) ** 2
        energy_all += float(np.sum(spec[1:]))
        energy_hi += float(np.sum(spec[(omega > cutoff) & (np.arange(spec.size) > 0)]))
    if energy_all == 0.0:
        return 0.0
    return energy_hi / energy_all


def hf_content(traj: Trajectory, cutoff: float, name: str = "u") -> float:
    """spectrum_fraction_above applied to one trajectory signal."""
    return spectrum_fraction_above(traj.t, signal(traj, name), cutoff)
