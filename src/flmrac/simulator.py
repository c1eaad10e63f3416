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

import math
from dataclasses import dataclass, field

import numpy as np

from . import controllers
from .controllers import ControllerConfig
from .matrixcore import DimensionError, is_hurwitz
from .plantmodel import PlantModel, augment

# Abort threshold for the stacked-state infinity norm.
DIVERGENCE_LIMIT = 1e9


class DivergenceError(RuntimeError):
    """The integration produced a non-finite or unbounded state.

    `state` holds the offending stacked state when the raiser had one.
    """

    def __init__(self, message: str, state: np.ndarray | None = None):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class CommandSpec:
    """Scalar command waveform, broadcast over the n_c command channels.

    kinds: "zero"; "step" (amplitude for t >= 0, plus offset); "square_wave"
    (offset + amplitude * sign(sin(2 pi t / period))); "custom"
    (zero-order-hold lookup in the given sample arrays).
    """

    kind: str = "zero"
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
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def value(self, t: float) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "step":
            return self.offset + (self.amplitude if t >= 0.0 else 0.0)
        if self.kind == "square_wave":
            wave = math.sin(2.0 * math.pi * t / self.period)
            return self.offset + self.amplitude * ((wave > 0.0) - (wave < 0.0))
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.values[max(idx, 0)]


def command(spec: CommandSpec, t: float, n_c: int = 1) -> np.ndarray:
    """Command vector c(t) for n_c channels (empty for n_c = 0)."""
    return np.full(n_c, spec.value(t), dtype=float)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian measurement noise on the augmented state.

    std is per-component (length n); sampling starts at start_time and is a
    pure function of (seed, step index), so a shared seed gives different
    controllers an identical noise stream.
    """

    enabled: bool = False
    std: tuple[float, ...] = ()
    start_time: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "std", tuple(float(s) for s in self.std))
        if any(s < 0 for s in self.std):
            raise ValueError("noise std entries must be nonnegative")


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
    name: str = ""

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("step size h must be positive")
        if self.t_final < 0:
            raise ValueError("t_final must be nonnegative")
        if self.t_final > 0 and self.t_final < self.h:
            raise ValueError("t_final must be at least one step h")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


@dataclass
class Trajectory:
    """Time-indexed record of one run.

    Per sample: true state x, modified reference x_r, ideal reference x_ri,
    system error e = x - x_r, filtered error e_L, high-frequency error
    e_H = e - e_L, applied control u (computed from the measured state), the
    weight estimate and the command.
    """

    t: np.ndarray
    x: np.ndarray
    x_r: np.ndarray
    x_ri: np.ndarray
    e: np.ndarray
    e_L: np.ndarray
    e_H: np.ndarray
    u: np.ndarray
    W_hat: np.ndarray  # (N, s+n, m)
    c: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.t.size


class ClosedLoopSystem:
    """Vector field of the coupled closed loop over the stacked state.

    Layout of the stacked state y: [x (n); x_r (n); x_ri (n); e_L (n);
    vec(W_hat) ((s+n)*m, row-major)].

    The laws of the first four blocks are linear apart from the uncertainty
    and the adaptive control, so they are fused at assembly into constant
    block operators over z = y[:4n]:

        z' = M z + G nu + E (delta - Lambda W_hat' sigma_m) + b_c c(t)

    with nu the measurement noise, sigma_m the basis of the measured state
    x + nu, delta = W_p(t)' sigma_p(x) the uncertainty at the true state and
    c(t) the scalar command.  M holds the nominal control -B Lambda K x, the
    modified reference's kappa (e - e_L) mismatch, the ideal reference and the
    eta (e - e_L) filter; G = [-B Lambda K; kappa I; 0; eta I] injects the
    noise those laws see; E = [B; 0; 0; 0]; b_c stacks B_r 1 for the plant
    and both references.  The module-level laws (refsys, controllers,
    plantmodel.eval_uncertainty) are the reference this field is tested
    against.
    """

    def __init__(self, scenario: ScenarioConfig):
        plant = scenario.plant
        aug = augment(plant, scenario.E_p)
        cfg = scenario.controller
        n, m, n_p = aug.n, aug.m, aug.n_p
        if cfg.K.shape != (m, n):
            raise DimensionError(f"K is {cfg.K.shape}, expected ({m}, {n})")
        A_r = aug.A - aug.B @ cfg.K
        if not is_hurwitz(A_r):
            raise ValueError("A - B K is not Hurwitz; fix the nominal gain K")
        if cfg.lyap.P.shape != (n, n):
            raise DimensionError(f"Lyapunov P is {cfg.lyap.P.shape}, expected ({n}, {n})")
        if cfg.lyap.residual(A_r) > 1e-8 * max(1.0, float(np.linalg.norm(cfg.lyap.R))):
            raise ValueError("Lyapunov pair does not solve this closed loop's equation")

        self.scenario = scenario
        self.plant = plant
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

        std = np.asarray(scenario.noise.std, dtype=float)
        if scenario.noise.enabled and std.shape != (n,):
            raise DimensionError(f"noise std must have length {n}, got {std.shape}")
        self.noise_std = std if scenario.noise.enabled else np.zeros(n)

        # Fused linear part of [x; x_r; x_ri; e_L]' (see the class docstring).
        I, Z = np.eye(n), np.zeros((n, n))
        BLK = aug.B @ (self.Lam[:, np.newaxis] * cfg.K)
        k, eta = cfg.kappa, cfg.eta
        self.M = np.block([
            [aug.A - BLK, Z, Z, Z],
            [k * I, A_r - k * I, Z, -k * I],
            [Z, Z, A_r, Z],
            [eta * I, -eta * I, Z, A_r - eta * I],
        ])
        self.G = np.vstack([-BLK, k * I, Z, eta * I])
        self.E = np.vstack([aug.B, np.zeros((3 * n, m))])
        Br1 = aug.B_r.sum(axis=1)
        self.b_c = np.concatenate([Br1, Br1, Br1, np.zeros(n)])
        self._has_command = self.n_c > 0 and scenario.command.kind != "zero"
        self._sigma = np.empty(self.s + n)

    def initial_state(self) -> np.ndarray:
        n = self.n
        x0 = np.zeros(n) if self.scenario.x0 is None else np.asarray(self.scenario.x0, dtype=float)
        if x0.shape != (n,):
            raise DimensionError(f"x0 must have length {n}")
        xr0 = x0 if self.scenario.x_r0 is None else np.asarray(self.scenario.x_r0, dtype=float)
        if xr0.shape != (n,):
            raise DimensionError(f"x_r0 must have length {n}")
        W0 = self.scenario.controller.initial_estimate(self.s + n, self.m)
        y = np.empty(self.state_dim)
        y[self.sl_x] = x0
        # Both references start from x_r0; the filter starts at zero.
        y[self.sl_xr] = xr0
        y[self.sl_xri] = xr0
        y[self.sl_eL] = 0.0
        y[self.sl_W] = W0.ravel()
        return y

    def measured_basis(self, t: float, x_m: np.ndarray) -> np.ndarray:
        """sigma(x_m) = [sigma_p(x_m[:n_p]); x_m], written into a buffer that
        the next call overwrites."""
        sigma = self._sigma
        s = self.s
        sigma[:s] = self.basis.features(t, x_m.tolist()[: self.n_p])
        sigma[s:] = x_m
        return sigma

    def deriv(self, t: float, y: np.ndarray, noise: np.ndarray | None = None) -> np.ndarray:
        """y' at time t; noise (length n, or None for none) perturbs only what
        the controller measures."""
        n4 = 4 * self.n
        z = y[:n4]
        x = y[: self.n]
        W_hat = y[n4:].reshape(-1, self.m)
        if noise is None:
            x_m = x
            sigma = self.measured_basis(t, x)
            sigma_p = sigma[: self.s]
        else:
            x_m = x + noise
            sigma = self.measured_basis(t, x_m)
            # The plant integrates truth: its uncertainty needs the basis at x.
            sigma_p = self.basis.eval_plant(t, x.tolist()[: self.n_p])
        # ndarray.dot: same BLAS products as @, with less call overhead.
        delta = sigma_p.dot(self.truth.W_p(t))

        lin = self.M.dot(z) + self.E.dot(delta - self.Lam * sigma.dot(W_hat))
        if noise is not None:
            lin += self.G.dot(noise)
        if self._has_command:
            lin += self.b_c * self.command_spec.value(t)

        Y = sigma[:, np.newaxis] * (x_m - y[self.sl_xr]).dot(self.PB)
        if self.projection is not None:
            Y = controllers.proj_matrix(W_hat, Y, self.projection)
        out = np.empty_like(y)
        out[:n4] = lin
        out[n4:] = (self.gamma * Y).ravel()
        return out

    def control_at(self, t: float, y: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
        """Applied control at a sample instant, from the measured state."""
        x_m = y[self.sl_x] if noise is None else y[self.sl_x] + noise
        W_hat = y[self.sl_W].reshape(self.s + self.n, self.m)
        return -(self.K @ x_m) - W_hat.T @ self.measured_basis(t, x_m)

    def diverged_block(self, y: np.ndarray) -> str:
        """Name of the block that diverged: the first with a non-finite entry,
        else the one holding the largest |y|."""
        bad = ~np.isfinite(y)
        i = int(np.argmax(bad)) if bad.any() else int(np.argmax(np.abs(y)))
        return next(name for name, sl in zip(self.block_names, self.blocks)
                    if sl.start <= i < sl.stop)


def assemble(scenario: ScenarioConfig) -> ClosedLoopSystem:
    """Validate the scenario and build its closed-loop vector field."""
    return ClosedLoopSystem(scenario)


def rk4_step(f, state: np.ndarray, t: float, h: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of y' = f(t, y)."""
    k1 = f(t, state)
    k2 = f(t + 0.5 * h, state + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, state + (0.5 * h) * k2)
    k4 = f(t + h, state + h * k3)
    out = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise DivergenceError(f"non-finite derivative while stepping at t={t:.6g}", out)
    return out


def run(scenario: ScenarioConfig) -> Trajectory:
    """Integrate the scenario and record every record_stride-th step.

    The sample at t_final is always included.  Noise is drawn once per step
    (zero-order hold across the RK4 substeps) from a generator seeded by the
    scenario, so identical seeds give bit-identical trajectories.
    """
    sys = assemble(scenario)
    h = scenario.h
    n_steps = int(round(scenario.t_final / h)) if scenario.t_final > 0 else 0
    stride = scenario.record_stride

    rng = np.random.default_rng(scenario.noise.seed)
    noise_on = scenario.noise.enabled and np.any(sys.noise_std > 0)

    def draw_noise(t: float) -> np.ndarray | None:
        if noise_on and t >= scenario.noise.start_time:
            return rng.standard_normal(sys.n) * sys.noise_std
        return None

    y = sys.initial_state()
    N = (n_steps - 1) // stride + 2 if n_steps else 1
    rec_t = np.empty(N)
    rec_y = np.empty((N, sys.state_dim))
    rec_u = np.empty((N, sys.m))
    rec_c = np.empty((N, sys.n_c))

    def record(i: int, t: float, y: np.ndarray, noise: np.ndarray | None) -> None:
        rec_t[i] = t
        rec_y[i] = y
        rec_u[i] = sys.control_at(t, y, noise)
        rec_c[i] = sys.command_spec.value(t)

    def diverged(t: float, state: np.ndarray) -> DivergenceError:
        return DivergenceError(
            f"simulation diverged at t={t:.6g} (signal: {sys.diverged_block(state)}); "
            "consider a smaller step size", state)

    # A blow-up overflows inside a step before the checks below catch it;
    # it is reported as a DivergenceError, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t = k * h
            noise = draw_noise(t)
            if k % stride == 0:
                record(k // stride, t, y, noise)
            f = lambda tt, yy: sys.deriv(tt, yy, noise)
            try:
                y = rk4_step(f, y, t, h)
            except DivergenceError as exc:
                raise diverged((k + 1) * h, exc.state) from None
            if float(np.max(np.abs(y))) > DIVERGENCE_LIMIT:
                raise diverged((k + 1) * h, y)
    t_end = n_steps * h
    record(N - 1, t_end, y, draw_noise(t_end))

    x = rec_y[:, sys.sl_x]
    x_r = rec_y[:, sys.sl_xr]
    e = x - x_r
    e_L = rec_y[:, sys.sl_eL]
    traj = Trajectory(
        t=rec_t,
        x=x,
        x_r=x_r,
        x_ri=rec_y[:, sys.sl_xri],
        e=e,
        e_L=e_L,
        e_H=e - e_L,
        u=rec_u,
        W_hat=rec_y[:, sys.sl_W].reshape(N, sys.s + sys.n, sys.m),
        c=rec_c,
        meta={
            "name": scenario.name,
            "h": h,
            "t_final": scenario.t_final,
            "record_stride": stride,
            "seed": scenario.noise.seed,
            "gamma": sys.gamma,
            "kappa": sys.kappa,
            "eta": sys.eta,
        },
    )
    return traj
