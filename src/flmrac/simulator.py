"""Closed-loop simulation of the adaptive architecture.

One run integrates the stacked state [x; x_r; x_ri; e_L; vec(W_hat)] with
fixed-step RK4: the true plant (driven by the hidden uncertainty), the
modified and ideal reference systems, the low-pass error filter and the
weight update law, all coupled through the measured state.  Measurement
noise, when enabled, perturbs only what the controller sees (the basis, the
control and the error feeding the update law); the plant always integrates
truth.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import controllers
from .controllers import ControllerConfig
from .matrixcore import DimensionError, is_hurwitz
from .plantmodel import AugmentedSystem, PlantModel, augment

# Bound on every stacked-state entry: run stops at a step that passes it, and
# no start value may lie beyond it.
DIVERGENCE_LIMIT = 1e9
#: A state whose sum of squares is at most this has no entry past the limit.
_DIVERGENCE_LIMIT_SQ = DIVERGENCE_LIMIT**2
#: Steps per chunk of run's input tables, so that their memory does not grow with the horizon.
CHUNK_STEPS = 1024


class ConfigError(ValueError):
    """A scenario or a command-line flag failed validation; `path` names the
    offending config field or flag."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class DivergenceError(RuntimeError):
    """A run's state became non-finite or left +-DIVERGENCE_LIMIT; `run`
    raises it with the step's time and the block that diverged."""


@dataclass(frozen=True)
class CommandSpec:
    """Scalar command waveform, broadcast over the n_c command channels.

    kinds: "zero"; "step" (amplitude for t >= 0, plus offset); "square_wave"
    (offset + amplitude * sign(sin(2 pi t / period))); "custom"
    (zero-order-hold lookup in the given samples, at strictly increasing times).
    """

    kind: str
    amplitude: float = 0.0
    period: float = 0.0
    offset: float = 0.0
    times: tuple[float, ...] = ()
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("zero", "step", "square_wave", "custom"):
            raise ValueError(f"unknown command kind {self.kind!r}")
        if self.kind == "square_wave" and self.period <= 0:
            raise ValueError("square_wave command needs period > 0")
        if self.kind == "custom":
            if len(self.times) != len(self.values) or not self.times:
                raise ValueError("custom command needs matching, nonempty samples")
            object.__setattr__(self, "times", tuple(float(t) for t in self.times))
            if not all(a < b for a, b in zip(self.times, self.times[1:])):
                raise ValueError(f"custom command times must increase, got {self.times}")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def value(self, t: float) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "step":
            return self.offset + (self.amplitude if t >= 0.0 else 0.0)
        if self.kind == "square_wave":
            wave = math.sin(2.0 * math.pi * t / self.period)
            return self.offset + self.amplitude * ((wave > 0.0) - (wave < 0.0))
        idx = bisect.bisect_right(self.times, t) - 1
        return self.values[max(idx, 0)]


def command(spec: CommandSpec, t: float, n_c: int = 1) -> np.ndarray:
    """Command vector c(t) for n_c channels (empty for n_c = 0)."""
    return np.full(n_c, spec.value(t), dtype=float)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian measurement noise on the augmented state.

    std is per-component (length n).  One sample is drawn per integration
    step, from the first step at or after start_time, as a pure function of
    (seed, step index): a shared seed gives different controllers an
    identical noise stream, but the stream depends on the step size h.
    `run` draws a chunk's samples in one call, which gives the same stream.
    """

    enabled: bool = False
    std: tuple[float, ...] = ()
    start_time: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "std", tuple(float(s) for s in self.std))
        if not all(0.0 <= s < math.inf for s in self.std):
            raise ConfigError("noise.std", "entries must be finite and nonnegative")
        if self.seed < 0:
            raise ConfigError("noise.seed", f"must be nonnegative, got {self.seed}")


def closed_loop(plant: PlantModel, E_p, K: np.ndarray) -> tuple[AugmentedSystem, np.ndarray]:
    """The augmented system and A - B K, once E_p and K are checked to fit the plant."""
    try:
        aug = augment(plant, E_p)
    except DimensionError as exc:
        raise ConfigError("E_p", str(exc)) from None
    if K.shape != (aug.m, aug.n):
        raise ConfigError("controller.K", f"shape {K.shape}, expected ({aug.m}, {aug.n})")
    return aug, aug.A - aug.B @ K


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one reproducible run needs."""

    plant: PlantModel
    E_p: np.ndarray
    controller: ControllerConfig
    command: CommandSpec
    noise: NoiseSpec
    t_final: float
    h: float
    record_stride: int = 1
    x0: np.ndarray | None = None
    x_r0: np.ndarray | None = None
    name: str = "scenario"

    def __post_init__(self):
        """Check every condition a run relies on; a failure names its config field."""
        if not 0.0 < self.h < math.inf:
            raise ConfigError("h", "step size must be positive and finite")
        if not (self.t_final == 0.0 or self.h <= self.t_final < 2.0**53 * self.h):
            raise ConfigError("t_final", "must be 0, or finite and 1 to 2**53 steps h")
        # The relative tolerance admits the rounding of h * steps; halving h keeps a multiple.
        if not math.isclose(self.steps * self.h, self.t_final, rel_tol=1e-12):
            raise ConfigError("t_final", f"not a whole number of steps h = {self.h!r}")
        if self.record_stride < 1:
            raise ConfigError("record_stride", "must be >= 1")
        if self.name in ("", ".", "..") or "/" in self.name or "\\" in self.name:
            raise ConfigError("name", f"{self.name!r} must be a nonempty file-name component")
        cfg, cmd = self.controller, self.command
        numbers = {**{f"controller.{key}": getattr(cfg, key)
                      for key in ("K", "gamma", "kappa", "eta", "W_hat0")},
                   **{f"command.{key}": getattr(cmd, key)
                      for key in ("amplitude", "period", "offset", "times", "values")},
                   "plant.truth.W_p": self.plant.truth.W_p_base, "E_p": self.E_p,
                   "noise.start_time": self.noise.start_time, "x0": self.x0, "x_r0": self.x_r0}
        for path, value in numbers.items():
            if value is not None and not np.all(np.isfinite(value)):
                raise ConfigError(path, "NaN and infinity are not allowed")
        aug, A_r = closed_loop(self.plant, self.E_p, cfg.K)
        n, m = aug.n, aug.m
        if not is_hurwitz(A_r):
            raise ConfigError("controller.K", "A - B K is not Hurwitz; fix the nominal gain K")
        R, P = cfg.lyap.R, cfg.lyap.P
        if (R.shape != (n, n) or P.shape != (n, n)
                or not cfg.lyap.residual(A_r) <= 1e-8 * max(1.0, float(np.linalg.norm(R)))):
            raise ConfigError("controller.R", "Lyapunov pair does not solve A - B K's equation")
        shapes = (("controller.W_hat0", cfg.W_hat0, (self.plant.basis.dim + n, m)),
                  ("noise.std", self.noise.std if self.noise.enabled else None, (n,)),
                  ("x0", self.x0, (n,)), ("x_r0", self.x_r0, (n,)))
        for path, value, shape in shapes:
            if value is not None and np.shape(value) != shape:
                raise ConfigError(path, f"shape {np.shape(value)}, expected {shape}")
            # A start beyond run's divergence guard could only diverge, or overflow first.
            if value is not None and not np.all(np.abs(value) <= DIVERGENCE_LIMIT):
                raise ConfigError(path, f"an entry is beyond the divergence limit "
                                        f"{DIVERGENCE_LIMIT:g}")

    @property
    def steps(self) -> int:
        """Number of RK4 steps from 0 to t_final."""
        return round(self.t_final / self.h)

    @property
    def samples(self) -> int:
        """Number of recorded samples: every record_stride-th step, and t_final."""
        return (self.steps - 1) // self.record_stride + 2


@dataclass
class Trajectory:
    """Time-indexed record of one run: per sample, the integrated blocks x, x_r,
    x_ri, e_L and W_hat, the applied control u (from the measured state) and the
    command c.  The error signals are properties derived from them.
    """

    #: The one list of signal names, stored and derived, that analysis.signal accepts.
    SIGNALS = ("x", "x_r", "x_ri", "e", "e_L", "e_H", "u", "c", "x_err_ideal", "x_tilde")

    t: np.ndarray
    x: np.ndarray
    x_r: np.ndarray
    x_ri: np.ndarray
    e_L: np.ndarray
    u: np.ndarray
    W_hat: np.ndarray  # (N, s+n, m)
    c: np.ndarray

    @property
    def e(self) -> np.ndarray:
        return self.x - self.x_r

    @property
    def e_H(self) -> np.ndarray:
        return self.e - self.e_L

    @property
    def x_err_ideal(self) -> np.ndarray:  # the transient bound's subject
        return self.x - self.x_ri

    @property
    def x_tilde(self) -> np.ndarray:
        return self.x_r - self.x_ri

    def __len__(self) -> int:
        return self.t.size


class ClosedLoopSystem:
    """Vector field of the coupled closed loop over the stacked state.

    Layout of the stacked state y: [x (n); x_r (n); x_ri (n); e_L (n);
    vec(W_hat) ((s+n)*m, row-major)].

    The linear parts of the first four blocks' laws and the update law's
    error gain r are fused at assembly into one constant operator over
    z = y[:4n] and the inputs, and W_hat' = sigma_m r', projected near the ball:

        [z'; r] = [M | E | -E Lambda | G | b_c] [z; delta; W_hat' sigma_m; e_m; c]

    with e_m = x_m - x_r the measured error, x_m = x + nu the measured state
    (nu the measurement noise, zero when off), sigma_m the basis of x_m,
    delta = W_p' sigma_p(x) the uncertainty at the true state and c the
    scalar command.  W_p, c and nu form one input row (`stage_inputs`); the basis
    reads no time, so the field is a function of y and the row alone.
    G = [-B Lambda K; kappa I; 0; eta I; gamma (P B)'] holds each gain once:
    the laws -B Lambda K (x_r + e_m), kappa (e_m - e_L), eta (e_m - e_L) and
    r = gamma (P B)' e_m read x_m only through e_m, so r is never a difference
    of terms the size of x.  M holds the rest (only the plant row reads x),
    E = [B; 0; 0; 0; 0] and b_c stacks B_r 1 for the plant and both references.
    This is the one definition of the law; its test reference is
    tests/oracles.py's PlainMracSimulator.
    """

    def __init__(self, scenario: ScenarioConfig):
        plant = scenario.plant
        cfg = scenario.controller
        aug, A_r = closed_loop(plant, scenario.E_p, cfg.K)
        n, m, n_p = aug.n, aug.m, aug.n_p

        self.scenario = scenario
        self.aug = aug
        self.A_r = A_r
        self.K = cfg.K
        self.PB = cfg.lyap.P @ aug.B
        self.gamma = cfg.gamma
        self.kappa = cfg.kappa
        self.eta = cfg.eta
        self.projection = cfg.projection
        self.Lam = plant.Lambda
        self.n, self.m, self.n_p, self.n_c = n, m, n_p, aug.n_c
        self.s = plant.basis.dim
        self.basis = plant.basis
        self.truth = plant.truth
        self.command_spec = scenario.command

        w_len = (self.s + n) * m
        self.state_dim = 4 * n + w_len
        self.sl_x = slice(0, n)
        self.sl_xr = slice(n, 2 * n)
        self.sl_xri = slice(2 * n, 3 * n)
        self.sl_eL = slice(3 * n, 4 * n)
        self.sl_W = slice(4 * n, 4 * n + w_len)
        self.block_names = ("x", "x_r", "x_ri", "e_L", "W_hat")
        self.blocks = (self.sl_x, self.sl_xr, self.sl_xri, self.sl_eL, self.sl_W)

        # Fused linear part of [z'; r], [M | E | -E Lambda | G | b_c] (see the class docstring).
        I, Z, ZB = np.eye(n), np.zeros((n, n)), np.zeros((n, m))
        BLK = aug.B @ (self.Lam[:, np.newaxis] * cfg.K)
        Br1 = aug.B_r.sum(axis=1, keepdims=True)
        self._L = np.block([
            [aug.A, -BLK, Z, Z, aug.B, -aug.B * self.Lam, -BLK, Br1],
            [Z, A_r, Z, -cfg.kappa * I, ZB, ZB, cfg.kappa * I, Br1],
            [Z, Z, A_r, Z, ZB, ZB, Z, Br1],
            [Z, Z, Z, A_r - cfg.eta * I, ZB, ZB, cfg.eta * I, np.zeros((n, 1))],
            [np.zeros((m, 4 * n + 2 * m)), cfg.gamma * self.PB.T, np.zeros((m, 1))],
        ])
        # Its input [z; delta; W_hat' sigma_m; e_m; c] and output [z'; r], with views of
        # the slots deriv writes and reads.
        self._v = np.zeros(self._L.shape[1])
        self._v_z, self._v_delta, self._v_Wsigma, self._v_em = np.split(
            self._v[:-1], [4 * n, 4 * n + m, 4 * n + 2 * m])
        self._v_x, self._v_xr = self._v_z[:n], self._v_z[n: 2 * n]
        self._zr = np.empty(4 * n + m)
        self._z_dot, self._r_row = self._zr[: 4 * n], self._zr[np.newaxis, 4 * n:]
        self._sigma = np.empty(self.s + n)
        self._sigma_p, self._sigma_col = self._sigma[: self.s], self._sigma[:, np.newaxis]
        self._x_m, self._sigma_x = np.empty(n), np.empty(self.s)
        # A column has phi >= 0 only if ||theta||^2 >= theta_max^2 / (1 + eps), so only if
        # ||W_hat||_F^2 is; the margin covers the rounding of the sums.
        spec = cfg.projection
        self._proj_from = spec and (1.0 - 1e-9) * spec.theta_max**2 / (1.0 + spec.eps_theta)

    def initial_state(self) -> np.ndarray:
        n = self.n
        x0 = np.zeros(n) if self.scenario.x0 is None else np.asarray(self.scenario.x0, dtype=float)
        xr0 = x0 if self.scenario.x_r0 is None else np.asarray(self.scenario.x_r0, dtype=float)
        W0 = self.scenario.controller.initial_estimate(self.s + n, self.m)
        y = np.empty(self.state_dim)
        y[self.sl_x] = x0
        # Both references start from x_r0; the filter starts at zero.
        y[self.sl_xr] = xr0
        y[self.sl_xri] = xr0
        y[self.sl_eL] = 0.0
        y[self.sl_W] = W0.ravel()
        return y

    def measured_basis(self, x_m: np.ndarray) -> np.ndarray:
        """sigma(x_m) = [sigma_p(x_m[:n_p]); x_m], written into a buffer that
        the next call overwrites.  The features get all of x_m: PlantModel
        rejects a basis that reads past the plant state."""
        xl = x_m.tolist()
        self._sigma[...] = self.basis.features(xl) + xl
        return self._sigma

    def stage_inputs(self, t: np.ndarray, h: float, noise: list) -> zip:
        """Iterate the steps of size h from the times t, step k measuring noise[k]: each
        yields its input rows (W_p(t), c(t), noise[k]) at t = t[k], t[k] + h/2 and
        t[k] + h, noise[k] None for none."""
        times = np.stack([t, t + 0.5 * h, t + h], axis=1)
        W = self.truth.W_p_grid(times.ravel()).reshape(times.shape + (self.s, self.m))
        c = [self.command_spec.value(tt) for tt in times.ravel().tolist()]
        return zip(*(zip(W[:, j], c[j::3], noise) for j in range(3)))

    def deriv(self, row: tuple, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """y' with `row`'s inputs (see `stage_inputs`), written into `out` (a new array
        when None) and returned; the noise perturbs only what the controller measures."""
        if out is None:
            out = np.empty_like(y)
        W_p, c, noise = row
        n4 = 4 * self.n
        x, w = y[: self.n], y[n4:]
        W_hat = w.reshape(-1, self.m)
        self._v_z[...] = y[:n4]
        if noise is None:
            x_m, sigma_p = self._v_x, self._sigma_p
        else:
            x_m, sigma_p = np.add(x, noise, out=self._x_m), self._sigma_x
            # The plant integrates truth: its uncertainty needs the basis at x.
            sigma_p[...] = self.basis.features(x[: self.n_p].tolist())
        sigma = self.measured_basis(x_m)
        np.subtract(x_m, self._v_xr, out=self._v_em)
        # ndarray.dot: same BLAS products as @, with less call overhead.
        sigma_p.dot(W_p, out=self._v_delta)
        sigma.dot(W_hat, out=self._v_Wsigma)
        self._v[-1] = c
        self._L.dot(self._v, out=self._zr)
        out[:n4] = self._z_dot
        W_dot = out[n4:].reshape(-1, self.m)
        self._sigma_col.dot(self._r_row, out=W_dot)  # sigma_m r', one product per entry
        if self.projection is not None and w.dot(w) >= self._proj_from:
            W_dot[...] = controllers.proj_matrix(W_hat, W_dot, self.projection)
        return out

    def control_at(self, Y: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
        """Applied control u = -K x_m - W_hat' sigma(x_m) at each of N samples, as
        an (N, m) array: Y holds the N stacked states as rows (N, d) and noise their
        measurement noise (N, n), None for none; x_m = x + noise.  The law reads no
        time."""
        x_m = Y[:, self.sl_x] if noise is None else Y[:, self.sl_x] + noise
        W_hat = Y[:, self.sl_W].reshape(len(Y), self.s + self.n, self.m)
        sigma = np.empty((len(Y), self.s + self.n))
        for i, x_i in enumerate(x_m):
            sigma[i] = self.measured_basis(x_i)
        return -(x_m @ self.K.T) - np.einsum("ij,ijk->ik", sigma, W_hat)

    def diverged_block(self, y: np.ndarray) -> str:
        """Name of the block that diverged: the first with a non-finite entry,
        else the one holding the largest |y|."""
        bad = ~np.isfinite(y)
        i = int(np.argmax(bad)) if bad.any() else int(np.argmax(np.abs(y)))
        return next(name for name, sl in zip(self.block_names, self.blocks)
                    if sl.start <= i < sl.stop)


def assemble(scenario: ScenarioConfig) -> ClosedLoopSystem:
    """Build the scenario's closed-loop vector field."""
    return ClosedLoopSystem(scenario)


@functools.lru_cache(maxsize=8)
def _rk4_coefficients(h: float) -> tuple:
    """RK4 with step h: (input row, coefficients over [state, k_{i-1}]) of each
    stage i = 2, 3, 4, and the step's coefficients over [state, k1..k4]."""
    half, w = (1, np.array([1.0, 0.5 * h])), h / 6.0
    return (half, half, (2, np.array([1.0, h]))), np.array([1.0, w, 2.0 * w, 2.0 * w, w])


def rk4_step(f, state: np.ndarray, rows, h: float, stages: np.ndarray | None = None) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of y' = f(row, y).

    Stage 1 reads rows[0], stages 2-3 rows[1] and stage 4 rows[2], the inputs
    at the step's start, middle and end: (t, t + 0.5*h, t + h) for a field of
    time alone.  f writes y' into its `out` keyword argument.  `stages` is a
    (6, d) scratch buffer, allocated here when None; a caller that steps many
    times passes one in.  Row 0 holds the state, rows 1-4 the stage
    derivatives k1..k4 and row 5 the stage state.  Each stage state is one
    product over the row pair [state, k_{i-1}], and the step one product over
    rows 0-4: no product reads a row this step has not written, so what the
    buffer held never shows.  The step checks nothing: `run` guards the state.
    """
    if stages is None:
        stages = np.empty((6, state.size))
    stage_coefficients, step = _rk4_coefficients(h)
    y = stages[5]
    stages[0] = state
    f(rows[0], state, out=stages[1])
    for i, (row, coefficients) in enumerate(stage_coefficients, 2):
        coefficients.dot(stages[0:i:i - 1], out=y)  # state + c k_{i-1}
        f(rows[row], y, out=stages[i])
    return step.dot(stages[:5])


def run(scenario: ScenarioConfig) -> Trajectory:
    """Integrate the scenario and record every record_stride-th step.

    The sample at t_final is always included.  The loop fills its input
    tables CHUNK_STEPS steps at a time (`ClosedLoopSystem.stage_inputs`): W_p
    and c at each step's stage times, and noise drawn once per step from a
    generator seeded by the scenario, so identical seeds give bit-identical
    trajectories.  A sample records the state, the time k * h, and the command
    and noise of its step's first row; the control of all samples follows the
    loop.  A new state with a non-finite entry or one beyond DIVERGENCE_LIMIT
    raises DivergenceError.
    """
    sys = assemble(scenario)
    h = scenario.h
    n_steps = scenario.steps

    rng = np.random.default_rng(scenario.noise.seed)
    noise_std = np.asarray(scenario.noise.std)
    noise_on = scenario.noise.enabled and np.any(noise_std > 0)
    noise_from = scenario.noise.start_time if noise_on else math.inf

    y = sys.initial_state()
    N = scenario.samples
    rec_t = np.empty(N)
    rec_y = np.empty((N, sys.state_dim))
    rec_noise = np.zeros((N, sys.n))
    rec_c = np.empty((N, sys.n_c))
    stages = np.empty((6, sys.state_dim))
    i = 0

    # A blow-up overflows inside a step, before the guard below sees the new
    # state; it is reported as a DivergenceError, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n_steps + 1, CHUNK_STEPS):
            t = np.arange(k0, min(k0 + CHUNK_STEPS, n_steps + 1)) * h  # each k * h, bit for bit
            noisy = int(np.count_nonzero(t >= noise_from))
            drawn = rng.standard_normal((noisy, sys.n)) * noise_std if noisy else ()
            noise = [None] * (t.size - noisy) + list(drawn)
            for k, rows in enumerate(sys.stage_inputs(t, h, noise), k0):
                if k % scenario.record_stride == 0 or k == n_steps:
                    _, rec_c[i], nu = rows[0]
                    rec_t[i], rec_y[i], rec_noise[i] = k * h, y, 0.0 if nu is None else nu
                    i += 1
                if k < n_steps:
                    y = rk4_step(sys.deriv, y, rows, h, stages=stages)
                    # Written as "not <=", both tests also catch NaN. A NaN or an overflow makes
                    # the dot product NaN or inf, so it falls through to the exact test.
                    if (not y.dot(y) <= _DIVERGENCE_LIMIT_SQ
                            and not np.maximum.reduce(np.abs(y)) <= DIVERGENCE_LIMIT):
                        raise DivergenceError(
                            f"simulation diverged at t={(k + 1) * h:.6g} (signal: "
                            f"{sys.diverged_block(y)}); consider a smaller step size")

    # A quiet sample of a noisy run measures x + 0, which equals x.
    u = sys.control_at(rec_y, rec_noise if noise_on else None)
    return Trajectory(
        t=rec_t,
        x=rec_y[:, sys.sl_x],
        x_r=rec_y[:, sys.sl_xr],
        x_ri=rec_y[:, sys.sl_xri],
        e_L=rec_y[:, sys.sl_eL],
        u=u,
        W_hat=rec_y[:, sys.sl_W].reshape(N, sys.s + sys.n, sys.m),
        c=rec_c,
    )
