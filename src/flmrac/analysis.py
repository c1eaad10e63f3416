"""Analytical bounds, frequency-domain quantities and trajectory metrics.

This is the verification layer: transient bounds for the classical and
modified architectures, the ultimate bound under time-varying uncertainty,
the boundary-layer decay fit, the scalar loop transfer function with its
stability margins, and the spectral high-frequency content metric; and a run's
figures: the bound report `flmrac run` writes (`bound_report_for`) and the row
`flmrac compare` writes (`run_metrics`).  Several routines take the hidden
truth as input; they are harness-side checks, never part of the controller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .matrixcore import LyapunovPair, sym_eig_extremes
from .plantmodel import UncertaintyTruth, aggregate_true_weights
from .simulator import ScenarioConfig, Trajectory


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

def bound_standard_mrac(gamma: float, P, W_tilde0, Lam, e0=None) -> float:
    """Classical-architecture transient bound on ||e||_Linf: sqrt(eps_V / lambda_min(P))
    with eps_V = gamma^-1 ||W_tilde0 Lambda^(1/2)||_F^2 + lambda_max(P) ||e0||_2^2, for
    e0 = e(0) (None for zero).  At e0 = 0 it is ||W_tilde0 Lambda^(1/2)||_F /
    sqrt(gamma lambda_min(P)), bit for bit."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    lam_min_P, lam_max_P = sym_eig_extremes(P)
    num = _weighted_fro(W_tilde0, Lam)
    e0_norm = 0.0 if e0 is None else float(np.linalg.norm(e0))
    # hypot(a, 0) is a: the e0 term leaves the e(0) = 0 value unchanged.
    return math.hypot(num / math.sqrt(gamma * lam_min_P),
                      math.sqrt(lam_max_P / lam_min_P) * e0_norm)


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
        # With one Lambda entry (m = 1), W's entries times its square root, in memory
        # order: the entries of the broadcast product below, in the same order.
        if len(lam_list) == 1:
            x = W.ravel(order="K") * math.sqrt(lam_list[0])
        else:
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
# A run's figures: its bound report and its compare row
# ---------------------------------------------------------------------------

#: xi at which bound_report_for evaluates the modified-architecture bounds.
BOUND_XI = 0.5
#: Cutoff (rad/s) of the control signal's high-frequency content in run_metrics.
DEFAULT_HF_CUTOFF = 10.0


def bound_report_for(scn: ScenarioConfig, traj: Trajectory) -> BoundReport:
    """Evaluate the architecture-appropriate bound against the trajectory: the
    report `flmrac run` writes as `<name>_bounds.json`, and the bound fields of
    run_metrics' row.

    kappa = 0 gets the classical transient bound on ||e||, with e(0) in it.
    kappa > 0 gets a bound on ||x - x_ri|| at xi = BOUND_XI: the time-varying
    ultimate bound for a time-varying truth under projection, else the
    modified-architecture transient bound.  Both transient bounds are proved
    for a constant truth only, so for a time-varying truth without projection
    the report checks a bound outside its hypothesis, not a guarantee: that is
    the case for the bundled wingrock_standard, wingrock_kappa_only and
    wingrock_high_gain, whose sin-modulated truth starts at 45 s.  Of the
    bundled scenarios only wingrock_proposed gets the ultimate bound.
    """
    cfg = scn.controller
    lam = scn.plant.Lambda
    lyap = cfg.lyap
    # The first sample is the run's initial state.
    W_tilde0 = traj.W_hat[0] - aggregate_true_weights(scn.plant.truth, lam, cfg.K, t=0.0)
    e0 = traj.e[0]

    inputs = {
        "gamma": cfg.gamma, "kappa": cfg.kappa, "eta": cfg.eta, "xi": BOUND_XI,
        **lyap.extremes(),
        "W_tilde0_weighted_fro": _weighted_fro(W_tilde0, lam),
        "e0_norm": float(np.linalg.norm(e0)),
        "Lambda_fro": float(np.linalg.norm(lam)),
    }

    if cfg.kappa == 0.0:
        value = bound_standard_mrac(cfg.gamma, lyap.P, W_tilde0, lam, e0)
        return BoundReport.make("standard_transient", value, linf_norm(traj, "e"), inputs)

    time_varying = not scn.plant.truth.is_constant
    if time_varying and cfg.projection is not None:
        wt_max, wd_max = aggregated_truth_bounds(scn.plant.truth, lam, cfg.K,
                                                 cfg.projection.theta_max)
        inputs.update({"w_tilde_max": wt_max, "w_dot_max": wd_max})
        value = bound_time_varying_ultimate(cfg.gamma, cfg.kappa, cfg.eta, BOUND_XI,
                                            lyap, lam, wt_max, wd_max)
        kind = "time_varying_ultimate"
    else:
        value = bound_modified_transient(cfg.gamma, cfg.kappa, BOUND_XI, lyap,
                                         W_tilde0, lam, e0)
        kind = "modified_transient"
        tightest = bound_modified_transient(cfg.gamma, cfg.kappa, XI_MAX,
                                            lyap, W_tilde0, lam, e0)
        inputs.update({"xi_star": XI_MAX, "bound_at_xi_star": tightest})
    return BoundReport.make(kind, value, linf_norm(traj, "x_err_ideal"), inputs)


def run_metrics(scn: ScenarioConfig, traj: Trajectory) -> dict:
    """The run's row in `flmrac compare`'s report: its design, the sup of
    ||x - x_ri|| over the run and from noise.start_time on (None if no sample lies
    there), the control's high-frequency content above DEFAULT_HF_CUTOFF, its sup
    and bound_report_for's bound."""
    err = signal(traj, "x_err_ideal")
    post_mask = traj.t >= scn.noise.start_time
    report = bound_report_for(scn, traj)
    return {
        "name": scn.name,
        "gamma": scn.controller.gamma,
        "kappa": scn.controller.kappa,
        "eta": scn.controller.eta,
        "tracking_linf": float(np.max(np.abs(err))),
        "tracking_linf_post": (float(np.max(np.abs(err[post_mask])))
                               if np.any(post_mask) else None),
        "hf_content_u": hf_content(traj, DEFAULT_HF_CUTOFF),
        "max_abs_u": linf_norm(traj, "u"),
        "bound_kind": report.kind,
        "bound_value": report.bound_value,
        "bound_observed": report.observed,
        "bound_satisfied": report.satisfied,
    }


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

def _check_loop(gamma: float, kappa: float, eta: float, alpha: float, omega=None) -> tuple:
    """Domain of the scalar loop: finite gamma > 0, alpha > 0, kappa >= 0 and
    eta >= 0 whose crossover cubic has finite coefficients, and every given
    omega > 0 (the integrator pole sits at zero).  A ValueError starts with
    the parameter's name; an overflowing cubic is the largest parameter's.
    Returns the coefficients of margins' crossover cubic in u = omega^2 (see there)."""
    params = (("gamma", gamma, True), ("kappa", kappa, False), ("eta", eta, False),
              ("alpha", alpha, True))
    for name, value, positive in params:
        if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
            rule = "positive" if positive else "nonnegative"
            raise ValueError(f"{name} must be finite and {rule}, got {value!r}")
    try:
        a2, b2, c2, g2 = (alpha + kappa + eta) ** 2, alpha**2, (alpha + eta) ** 2, gamma**2
        coeffs = (1.0, a2 + b2, a2 * b2 - g2 * b2, -g2 * b2 * c2)
        finite = all(map(math.isfinite, coeffs))
    except OverflowError:
        finite = False
    if not finite:
        name, value, _ = max(params, key=lambda p: p[1])
        raise ValueError(f"{name} is too large: the loop's crossover cubic overflows, "
                         f"got {value!r}")
    if omega is not None and not np.all(np.asarray(omega) > 0.0):
        raise ValueError("omega must be positive (integrator pole at zero)")
    return coeffs


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
#: The band (rad/s) that `bode` draws and `margins` searches for a gain crossover.
MARGIN_BAND = (1e-3, 1e4)


#: (LOW_FREQ_EDGE, HIGH_FREQ_POINT), read-only: the frequencies of band_gains_db.
_GAIN_POINTS = np.array([LOW_FREQ_EDGE, HIGH_FREQ_POINT])
_GAIN_POINTS.flags.writeable = False


def loop_gain_db(gamma: float, kappa: float, eta: float, alpha: float, omega):
    """20 log10 |G(j omega)|; omega is one frequency or an array of them.  |G| falls
    with omega; where it underflows to 0 the loop is out of domain, and the ValueError
    names the smaller of gamma and alpha, the two factors of the gain."""
    mag = np.abs(loop_transfer(gamma, kappa, eta, alpha, omega))
    if not (mag > 0.0).all():
        name, value = min((("gamma", gamma), ("alpha", alpha)), key=lambda p: p[1])
        first = float(np.min(np.asarray(omega)[mag == 0.0]))
        raise ValueError(f"{name} is too small: |G| underflows to 0 from omega = "
                         f"{first:g} rad/s, got {value!r}")
    return 20.0 * np.log10(mag)


def band_gains_db(gamma: float, kappa: float, eta: float, alpha: float) -> tuple[float, float]:
    """|G| in dB at LOW_FREQ_EDGE and at HIGH_FREQ_POINT."""
    low, high = loop_gain_db(gamma, kappa, eta, alpha, _GAIN_POINTS).tolist()
    return low, high


def margins(gamma: float, kappa: float, eta: float, alpha: float) -> MarginReport:
    """Gain crossover in closed form, plus phase/delay margins and band gains.

    With u = omega^2, a = alpha + kappa + eta, b = alpha, c = alpha + eta, |G| = 1
    is u^3 + (a^2 + b^2) u^2 + (a^2 - gamma^2) b^2 u - gamma^2 b^2 c^2 = 0.  Its
    coefficient signs (+, +, +/-, -) change once, so by Descartes' rule the loop has
    exactly one gain crossover: the cubic's only root with a positive real part,
    polished by one Newton step.  Raises NoCrossoverError if it lies outside MARGIN_BAND.
    """
    coeffs = _check_loop(gamma, kappa, eta, alpha)
    u = float(np.max(np.roots(coeffs).real))
    lo, hi = MARGIN_BAND
    # The polish moves u by far less than a factor of 2, so a root outside this wider
    # band lies outside MARGIN_BAND either way; it is not polished, because there the
    # cubic can overflow or its slope vanish.
    if lo * lo / 2.0 <= u <= 2.0 * hi * hi:
        # Horner in Python floats: np.polyval's operations (it starts from 0 u + c0 = c0).
        c0, c1, c2, c3 = coeffs
        u -= (((c0 * u + c1) * u + c2) * u + c3) / ((3.0 * u + 2.0 * c1) * u + c2)
    wc = math.sqrt(u)
    if not lo <= wc <= hi:
        # No frequency is named: wc can underflow to 0 or round to a band edge in print.
        raise NoCrossoverError(f"the gain crossover lies outside [{lo:g}, {hi:g}] rad/s, "
                               f"{'below' if wc < lo else 'above'} it")
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
