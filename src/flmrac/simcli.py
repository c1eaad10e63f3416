"""Command-line front end: scenario files, experiment orchestration, reports.

Scenario files are JSON (key/value with nested sections, matrices row-major
with explicit dimensions; see README for the schema).  Runs are seed-complete:
the same file always produces byte-identical trajectory CSV.  Exit codes:
0 success, 2 validation error, 3 divergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import hashlib
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, analysis
from .analysis import BoundReport, NoCrossoverError
from .controllers import ControllerConfig, ProjectionSpec
from .matrixcore import LyapunovPair, frobenius_norms, is_hurwitz
from .plantmodel import (BasisSpec, Modulation, PlantModel, UncertaintyTruth,
                         aggregate_true_weights, augment)
from .simulator import (CommandSpec, DivergenceError, NoiseSpec,
                        ScenarioConfig, Trajectory, run)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3

#: Retries with halved step size after a detected divergence.
MAX_STEP_HALVINGS = 3
#: Default cutoff (rad/s) for the control-signal high-frequency metric.
DEFAULT_HF_CUTOFF = 10.0


class ConfigError(ValueError):
    """A scenario file failed validation; `path` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

class _Section:
    """Cursor over a nested config dict that reports dotted field paths."""

    def __init__(self, data: dict, path: str = ""):
        if not isinstance(data, dict):
            raise ConfigError(path or "<root>", "expected an object")
        self.data = data
        self.path = path

    def _join(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def child(self, key: str) -> "_Section":
        return _Section(self.require(key), self._join(key))

    def require(self, key: str):
        if key not in self.data or self.data[key] is None:
            raise ConfigError(self._join(key), "missing required field")
        return self.data[key]

    def get(self, key: str, default=None):
        value = self.data.get(key, default)
        return default if value is None else value

    def number(self, key: str, default=None) -> float:
        value = self.require(key) if default is None else self.get(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(self._join(key), f"expected a number, got {value!r}")
        return float(value)

    def integer(self, key: str, default=None) -> int:
        value = self.require(key) if default is None else self.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(self._join(key), f"expected an integer, got {value!r}")
        return int(value)

    def matrix(self, key: str) -> np.ndarray:
        raw = self.require(key)
        sub = _Section(raw, self._join(key))
        rows = sub.integer("rows")
        cols = sub.integer("cols")
        data = sub.require("data")
        if not isinstance(data, list) or len(data) != rows * cols:
            raise ConfigError(sub._join("data"), f"expected {rows * cols} entries")
        try:
            arr = np.array([float(v) for v in data], dtype=float).reshape(rows, cols)
        except (TypeError, ValueError) as exc:
            raise ConfigError(sub._join("data"), str(exc)) from None
        return arr

    def vector(self, key: str) -> np.ndarray:
        raw = self.require(key)
        if not isinstance(raw, list):
            raise ConfigError(self._join(key), "expected a list of numbers")
        try:
            return np.array([float(v) for v in raw], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(self._join(key), str(exc)) from None


def _matrix_dict(arr: np.ndarray) -> dict:
    a = np.atleast_2d(np.asarray(arr, dtype=float))
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "data": [float(v) for v in a.ravel()]}


def dict_to_scenario(raw: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a parsed config dict."""
    root = _Section(raw)
    plant_sec = root.child("plant")
    basis = BasisSpec(tuple(plant_sec.require("basis")))
    truth_sec = plant_sec.child("truth")
    mods = []
    for i, m in enumerate(truth_sec.get("modulations", [])):
        ms = _Section(m, f"{truth_sec.path}.modulations[{i}]")
        mods.append(Modulation(row=ms.integer("row"), col=ms.integer("col"),
                               kind=str(ms.require("kind")), start=ms.number("start", 0.0)))
    try:
        truth = UncertaintyTruth(
            W_p_base=truth_sec.matrix("W_p"),
            modulations=tuple(mods),
            w_p_max=truth_sec.number("w_p_max", 0.0),
            w_p_dot_max=truth_sec.number("w_p_dot_max", 0.0),
        )
        plant = PlantModel(
            A_p=plant_sec.matrix("A_p"),
            B_p=plant_sec.matrix("B_p"),
            Lambda=plant_sec.vector("Lambda"),
            truth=truth,
            basis=basis,
        )
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(plant_sec.path, str(exc)) from None

    E_p = root.matrix("E_p") if raw.get("E_p") is not None else np.zeros((0, plant.n_p))

    ctrl_sec = root.child("controller")
    K = ctrl_sec.matrix("K")
    gamma = ctrl_sec.number("gamma")
    kappa = ctrl_sec.number("kappa", 0.0)
    eta = ctrl_sec.number("eta", 0.0)
    R = ctrl_sec.matrix("R")
    proj_raw = ctrl_sec.get("projection")
    projection = None
    if proj_raw is not None:
        ps = _Section(proj_raw, f"{ctrl_sec.path}.projection")
        projection = ProjectionSpec(theta_max=ps.number("theta_max"),
                                    eps_theta=ps.number("eps_theta"))
    W_hat0 = ctrl_sec.matrix("W_hat0") if ctrl_sec.get("W_hat0") is not None else None

    try:
        aug = augment(plant, E_p)
        A_r = aug.A - aug.B @ K
        if not is_hurwitz(A_r):
            raise ConfigError("controller.K", "A - B K is not Hurwitz")
        lyap = LyapunovPair.for_closed_loop(A_r, R)
        controller = ControllerConfig(K=K, gamma=gamma, kappa=kappa, eta=eta,
                                      lyap=lyap, projection=projection, W_hat0=W_hat0)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(ctrl_sec.path, str(exc)) from None

    cmd_sec = root.child("command")
    try:
        cmd = CommandSpec(
            kind=str(cmd_sec.require("kind")),
            amplitude=cmd_sec.number("amplitude", 0.0),
            period=cmd_sec.number("period", 0.0),
            offset=cmd_sec.number("offset", 0.0),
            times=tuple(cmd_sec.get("times", [])),
            values=tuple(cmd_sec.get("values", [])),
        )
    except ValueError as exc:
        raise ConfigError(cmd_sec.path, str(exc)) from None

    noise_sec = root.child("noise")
    noise = NoiseSpec(
        enabled=bool(noise_sec.get("enabled", False)),
        std=tuple(noise_sec.vector("std")) if noise_sec.get("std") is not None else (),
        start_time=noise_sec.number("start_time", 0.0),
        seed=noise_sec.integer("seed", 0),
    )

    x0 = root.vector("x0") if raw.get("x0") is not None else None
    x_r0 = root.vector("x_r0") if raw.get("x_r0") is not None else None
    t_final = root.number("t_final")
    try:
        truth.check_bounds(np.linspace(0.0, max(t_final, 1.0), 401))
    except ValueError as exc:
        raise ConfigError("plant.truth", str(exc)) from None
    try:
        return ScenarioConfig(
            plant=plant, E_p=E_p, controller=controller, command=cmd, noise=noise,
            t_final=t_final, h=root.number("h"),
            record_stride=root.integer("record_stride", 1),
            x0=x0, x_r0=x_r0, name=str(root.get("name", "scenario")),
        )
    except ValueError as exc:
        raise ConfigError("<root>", str(exc)) from None


def scenario_to_dict(scn: ScenarioConfig) -> dict:
    """Normalized dict form of a scenario (the canonical-serialization input)."""
    truth = scn.plant.truth
    cmd = scn.command
    out = {
        "name": scn.name,
        "plant": {
            "A_p": _matrix_dict(scn.plant.A_p),
            "B_p": _matrix_dict(scn.plant.B_p),
            "Lambda": [float(v) for v in scn.plant.Lambda],
            "basis": list(scn.plant.basis.names),
            "truth": {
                "W_p": _matrix_dict(truth.W_p_base),
                "modulations": [
                    {"row": m.row, "col": m.col, "kind": m.kind, "start": m.start}
                    for m in truth.modulations
                ],
                "w_p_max": truth.w_p_max,
                "w_p_dot_max": truth.w_p_dot_max,
            },
        },
        "E_p": _matrix_dict(scn.E_p) if scn.E_p.size else None,
        "controller": {
            "K": _matrix_dict(scn.controller.K),
            "gamma": scn.controller.gamma,
            "kappa": scn.controller.kappa,
            "eta": scn.controller.eta,
            "R": _matrix_dict(scn.controller.lyap.R),
            "projection": (
                None if scn.controller.projection is None else {
                    "theta_max": scn.controller.projection.theta_max,
                    "eps_theta": scn.controller.projection.eps_theta,
                }
            ),
            "W_hat0": (None if scn.controller.W_hat0 is None
                       else _matrix_dict(scn.controller.W_hat0)),
        },
        "command": {
            "kind": cmd.kind, "amplitude": cmd.amplitude,
            "period": cmd.period, "offset": cmd.offset,
        },
        "noise": {
            "enabled": scn.noise.enabled, "std": list(scn.noise.std),
            "start_time": scn.noise.start_time, "seed": scn.noise.seed,
        },
        "x0": None if scn.x0 is None else [float(v) for v in scn.x0],
        "x_r0": None if scn.x_r0 is None else [float(v) for v in scn.x_r0],
        "t_final": scn.t_final,
        "h": scn.h,
        "record_stride": scn.record_stride,
    }
    if cmd.kind == "custom":
        out["command"]["times"] = list(cmd.times)
        out["command"]["values"] = list(cmd.values)
    return out


def canonical_text(config_dict: dict) -> str:
    return json.dumps(config_dict, indent=2, sort_keys=True) + "\n"


def serialize_scenario(scn: ScenarioConfig) -> str:
    return canonical_text(scenario_to_dict(scn))


def load_config(path: str) -> tuple[ScenarioConfig, dict]:
    """Parse a config file (or bundled scenario name) into a scenario."""
    p = Path(path)
    if not p.exists():
        bundled = bundled_scenario_path(p.stem)
        if bundled is not None:
            p = bundled
        else:
            raise ConfigError("<file>", f"no such config file: {path}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON in {p}: {exc}") from None
    return dict_to_scenario(raw), raw


def bundled_scenario_path(name: str) -> Path | None:
    base = resources.files("flmrac").joinpath("scenarios")
    candidate = base.joinpath(f"{name}.cfg")
    try:
        if candidate.is_file():
            return Path(str(candidate))
    except (OSError, AttributeError):
        return None
    return None


def list_bundled() -> list[str]:
    base = resources.files("flmrac").joinpath("scenarios")
    return sorted(p.name[:-4] for p in base.iterdir() if p.name.endswith(".cfg"))


# ---------------------------------------------------------------------------
# Trajectory CSV
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def trajectory_header(n: int, m: int, s: int, n_c: int) -> list[str]:
    cols = ["t"]
    cols += [f"x_{i+1}" for i in range(n)]
    cols += [f"xr_{i+1}" for i in range(n)]
    cols += [f"xri_{i+1}" for i in range(n)]
    cols += [f"e_{i+1}" for i in range(n)]
    cols += [f"eL_{i+1}" for i in range(n)]
    cols += [f"eH_{i+1}" for i in range(n)]
    cols += [f"u_{j+1}" for j in range(m)]
    cols += [f"What_{i+1}_{j+1}" for i in range(s + n) for j in range(m)]
    cols += [f"c_{i+1}" for i in range(n_c)]
    return cols


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    n = traj.x.shape[1]
    m = traj.u.shape[1]
    sn = traj.W_hat.shape[1]
    n_c = traj.c.shape[1]
    header = trajectory_header(n, m, sn - n, n_c)
    N = len(traj)
    table = np.column_stack([traj.t, traj.x, traj.x_r, traj.x_ri, traj.e, traj.e_L,
                             traj.e_H, traj.u, traj.W_hat.reshape(N, -1), traj.c])
    # One format per row; "%.17g" % v writes the same bytes as format(v, ".17g").
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row_format % tuple(row.tolist()) for row in table)


def read_csv_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [list(map(float, r)) for r in reader if r]
    data = np.asarray(rows, dtype=float) if rows else np.zeros((0, len(header)))
    return {name: data[:, j] for j, name in enumerate(header)}


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------

def _truth_norms(truth: UncertaintyTruth, lam, K, ts: np.ndarray) -> np.ndarray:
    """||W(t)||_F at each time in ts, equal to the per-sample
    norm(aggregate_true_weights(truth, lam, K, t)).

    W(t) is built for all times at once in aggregate_true_weights' order
    (W_p(t) from the truth, then scaled by Lambda^-1).
    """
    W_p = truth.W_p_grid(ts)
    W = np.repeat(aggregate_true_weights(truth.W_p_base, lam, K)[np.newaxis], ts.size, axis=0)
    W[:, :W_p.shape[1]] = W_p * (1.0 / lam)
    return frobenius_norms(W)


def _truth_norm_budget(scn: ScenarioConfig) -> tuple[float, float]:
    """(sup ||W(t)||_F sampled, aggregated rate bound) for the configured truth."""
    truth = scn.plant.truth
    lam = scn.plant.Lambda
    ts = np.linspace(0.0, max(scn.t_final, 1.0), 2001)
    w_max = float(np.max(_truth_norms(truth, lam, scn.controller.K, ts)))
    w_dot = float(np.max(1.0 / lam)) * truth.w_p_dot_max
    return w_max, w_dot


def bound_report_for(scn: ScenarioConfig, traj: Trajectory, xi: float = 0.5) -> BoundReport:
    """Evaluate the architecture-appropriate bound against the trajectory.

    kappa = 0 gets the classical transient bound on ||e||; kappa > 0 gets the
    modified-architecture transient bound on ||x - x_ri|| when the truth is
    constant, and the time-varying ultimate bound when a projection radius is
    available for a time-varying truth.
    """
    cfg = scn.controller
    lam = scn.plant.Lambda
    lyap = cfg.lyap
    ex = lyap.extremes()
    W0 = aggregate_true_weights(scn.plant.truth, lam, cfg.K, t=0.0)
    W_hat0 = cfg.initial_estimate(*W0.shape)
    W_tilde0 = W_hat0 - W0
    n = scn.plant.n_p + scn.E_p.shape[0]
    x0 = np.zeros(n) if scn.x0 is None else np.asarray(scn.x0, dtype=float)
    xr0 = x0 if scn.x_r0 is None else np.asarray(scn.x_r0, dtype=float)
    e0 = x0 - xr0

    inputs = {
        "gamma": cfg.gamma, "kappa": cfg.kappa, "eta": cfg.eta, "xi": xi,
        "lam_min_P": ex["lam_min_P"], "lam_max_P": ex["lam_max_P"],
        "lam_min_R": ex["lam_min_R"],
        "W_tilde0_weighted_fro": analysis._weighted_fro(W_tilde0, lam),
        "e0_norm": float(np.linalg.norm(e0)),
        "Lambda_fro": float(np.linalg.norm(lam)),
    }

    if cfg.kappa == 0.0:
        value = analysis.bound_standard_mrac(cfg.gamma, lyap.P, W_tilde0, lam)
        observed = analysis.linf_norm(traj, "e")
        return BoundReport.make("standard_transient", value, observed, inputs)

    time_varying = not scn.plant.truth.is_constant
    if time_varying and cfg.projection is not None:
        w_max, w_dot = _truth_norm_budget(scn)
        wt_max, wd_max = analysis.aggregated_truth_bounds(
            w_max, scn.plant.truth.w_p_dot_max, lam, cfg.projection.theta_max, scn.plant.m)
        inputs.update({"w_tilde_max": wt_max, "w_dot_max": wd_max})
        value = analysis.bound_time_varying_ultimate(cfg.gamma, cfg.kappa, cfg.eta, xi,
                                           lyap, lam, wt_max, wd_max)
        observed = analysis.linf_norm(traj, "x_err_ideal")
        kind = "time_varying_ultimate"
    else:
        value = analysis.bound_modified_transient(cfg.gamma, cfg.kappa, xi, lyap,
                                           W_tilde0, lam, e0)
        observed = analysis.linf_norm(traj, "x_err_ideal")
        kind = "modified_transient"
        xi_star, tightest = analysis.optimal_xi(
            lambda z: analysis.bound_modified_transient(cfg.gamma, cfg.kappa, z, lyap,
                                                 W_tilde0, lam, e0))
        inputs.update({"xi_star": xi_star, "bound_at_xi_star": tightest})
    return BoundReport.make(kind, value, observed, inputs)


def _report_dict(rep: BoundReport) -> dict:
    return {"kind": rep.kind, "bound_value": rep.bound_value,
            "observed": rep.observed, "satisfied": rep.satisfied,
            "inputs": rep.inputs}


# ---------------------------------------------------------------------------
# SVG plotting (no plotting dependency; standalone vector output)
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f")
_MAX_POLYLINE_POINTS = 2000


def _decimate(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if x.size <= _MAX_POLYLINE_POINTS:
        return x, y
    step = int(math.ceil(x.size / _MAX_POLYLINE_POINTS))
    return x[::step], y[::step]


def _axis_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


class _Panel:
    """One cartesian panel inside an SVG document."""

    def __init__(self, x0, y0, width, height, xlim, ylim, logx=False):
        self.x0, self.y0, self.w, self.h = x0, y0, width, height
        self.xlim, self.ylim = xlim, ylim
        self.logx = logx

    def px(self, x: float) -> float:
        lo, hi = self.xlim
        if self.logx:
            lo, hi, x = math.log10(lo), math.log10(hi), math.log10(x)
        frac = (x - lo) / (hi - lo) if hi > lo else 0.5
        return self.x0 + frac * self.w

    def py(self, y: float) -> float:
        lo, hi = self.ylim
        frac = (y - lo) / (hi - lo) if hi > lo else 0.5
        return self.y0 + self.h - frac * self.h

    def frame(self, parts: list, xlabel: str, ylabel: str) -> None:
        parts.append(
            f'<rect x="{self.x0}" y="{self.y0}" width="{self.w}" height="{self.h}" '
            f'fill="none" stroke="#333" stroke-width="1"/>')
        if self.logx:
            lo_d = math.ceil(math.log10(self.xlim[0]))
            hi_d = math.floor(math.log10(self.xlim[1]))
            xticks = [10.0**d for d in range(lo_d, hi_d + 1)]
        else:
            xticks = _axis_ticks(*self.xlim)
        for xv in xticks:
            px = self.px(xv)
            parts.append(f'<line x1="{px:.2f}" y1="{self.y0 + self.h}" x2="{px:.2f}" '
                         f'y2="{self.y0 + self.h + 5}" stroke="#333"/>')
            parts.append(f'<text x="{px:.2f}" y="{self.y0 + self.h + 18}" font-size="11" '
                         f'text-anchor="middle">{xv:.4g}</text>')
        for yv in _axis_ticks(*self.ylim):
            py = self.py(yv)
            parts.append(f'<line x1="{self.x0 - 5}" y1="{py:.2f}" x2="{self.x0}" '
                         f'y2="{py:.2f}" stroke="#333"/>')
            parts.append(f'<text x="{self.x0 - 8}" y="{py + 4:.2f}" font-size="11" '
                         f'text-anchor="end">{yv:.4g}</text>')
        parts.append(f'<text x="{self.x0 + self.w / 2:.2f}" y="{self.y0 + self.h + 34}" '
                     f'font-size="12" text-anchor="middle">{xlabel}</text>')
        parts.append(f'<text x="{self.x0 - 52}" y="{self.y0 + self.h / 2:.2f}" font-size="12" '
                     f'text-anchor="middle" transform="rotate(-90 {self.x0 - 52} '
                     f'{self.y0 + self.h / 2:.2f})">{ylabel}</text>')

    def polyline(self, parts: list, xs, ys, color: str) -> None:
        xs, ys = _decimate(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')


def _finish_svg(parts: list, width: int, height: int, path: Path) -> None:
    doc = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">\n'
           '<rect width="100%" height="100%" fill="white"/>\n'
           + "\n".join(parts) + "\n</svg>\n")
    Path(path).write_text(doc)


def _series_limits(series) -> tuple[tuple[float, float], tuple[float, float]]:
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    pad = 0.05 * (float(np.max(ys)) - float(np.min(ys)) or 1.0)
    return ((float(np.min(xs)), float(np.max(xs))),
            (float(np.min(ys)) - pad, float(np.max(ys)) + pad))


def svg_timeseries(series, path: Path, xlabel: str = "t [s]", ylabel: str = "",
                   title: str = "") -> None:
    """series: list of (label, x array, y array) tuples."""
    width, height = 860, 480
    xlim, ylim = _series_limits(series)
    panel = _Panel(70, 45, width - 95, height - 105, xlim, ylim)
    parts: list[str] = []
    if title:
        parts.append(f'<text x="{width / 2}" y="24" font-size="14" '
                     f'text-anchor="middle">{title}</text>')
    panel.frame(parts, xlabel, ylabel)
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        panel.polyline(parts, xs, ys, color)
        ly = 58 + 16 * i
        parts.append(f'<line x1="{width - 180}" y1="{ly - 4}" x2="{width - 155}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width - 150}" y="{ly}" font-size="11">{label}</text>')
    _finish_svg(parts, width, height, path)


def svg_bode(omega, mag_db, phase_deg, path: Path, title: str = "") -> None:
    """Dual-panel magnitude/phase plot over a log frequency axis."""
    width, height = 860, 640
    omega = np.asarray(omega, dtype=float)
    xlim = (float(omega[0]), float(omega[-1]))
    parts: list[str] = []
    if title:
        parts.append(f'<text x="{width / 2}" y="22" font-size="14" '
                     f'text-anchor="middle">{title}</text>')
    for row, (vals, label) in enumerate(((np.asarray(mag_db, dtype=float), "magnitude [dB]"),
                                         (np.asarray(phase_deg, dtype=float), "phase [deg]"))):
        pad = 0.05 * (float(np.max(vals)) - float(np.min(vals)) or 1.0)
        panel = _Panel(70, 40 + row * 300, width - 95, 250,
                       xlim, (float(np.min(vals)) - pad, float(np.max(vals)) + pad),
                       logx=True)
        panel.frame(parts, "omega [rad/s]" if row == 1 else "", label)
        panel.polyline(parts, omega, vals, _PALETTE[row])
    _finish_svg(parts, width, height, path)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def make_manifest(raw_config: dict, scn: ScenarioConfig, outputs: list[str],
                  overrides: dict) -> dict:
    canon = serialize_scenario(scn)
    return {
        "scenario": scn.name,
        "scenario_hash": hashlib.sha256(canon.encode()).hexdigest(),
        "seed": scn.noise.seed,
        "overrides": overrides,
        "versions": {
            "flmrac": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs,
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _apply_overrides(scn: ScenarioConfig, args) -> tuple[ScenarioConfig, dict]:
    overrides = {}
    if getattr(args, "seed_override", None) is not None:
        overrides["seed"] = args.seed_override
        scn = dataclasses.replace(
            scn, noise=dataclasses.replace(scn.noise, seed=args.seed_override))
    if getattr(args, "step_size", None) is not None:
        overrides["h"] = args.step_size
        scn = dataclasses.replace(scn, h=args.step_size)
    return scn, overrides


def _warn_gain_window(scn: ScenarioConfig) -> None:
    # The filter should pass strictly less bandwidth than the mismatch gain
    # injects; eta above kappa collapses the architecture toward the
    # classical one and is almost certainly a tuning mistake.
    if scn.controller.eta > scn.controller.kappa:
        print(f"[flmrac] warning: eta ({scn.controller.eta:g}) exceeds kappa "
              f"({scn.controller.kappa:g}); the filtered-error design expects "
              "eta well below kappa", file=sys.stderr)


def _run_with_retries(scn: ScenarioConfig) -> tuple[Trajectory, ScenarioConfig]:
    """Run the scenario, halving h after each divergence, up to the retry cap."""
    _warn_gain_window(scn)
    for attempt in range(MAX_STEP_HALVINGS + 1):
        try:
            return run(scn), scn
        except DivergenceError as exc:
            if attempt == MAX_STEP_HALVINGS:
                raise
            new_h = scn.h / 2.0
            print(f"[flmrac] divergence ({exc}); retrying with h={new_h:g}",
                  file=sys.stderr)
            scn = dataclasses.replace(scn, h=new_h)


def cmd_run(args) -> int:
    try:
        scn, raw = load_config(args.config)
        scn, overrides = _apply_overrides(scn, args)
    except ConfigError as exc:
        print(f"[flmrac] config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        traj, scn = _run_with_retries(scn)
    except DivergenceError as exc:
        print(f"[flmrac] {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE

    csv_path = out_dir / f"{scn.name}.csv"
    write_trajectory_csv(traj, csv_path)
    report = bound_report_for(scn, traj)
    bounds_path = out_dir / f"{scn.name}_bounds.json"
    bounds_path.write_text(json.dumps(_report_dict(report), indent=2, sort_keys=True) + "\n")
    manifest = make_manifest(raw, scn, [str(csv_path), str(bounds_path)], overrides)
    manifest_path = out_dir / f"{scn.name}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    print(f"[flmrac] {scn.name}: {len(traj)} samples to t={traj.t[-1]:g} s")
    print(f"[flmrac] bound[{report.kind}] = {report.bound_value:.6g}, "
          f"observed = {report.observed:.6g}, satisfied = {report.satisfied}")
    print(f"[flmrac] wrote {csv_path}")
    return EXIT_OK


def _compare_key(raw: dict) -> str:
    shared = {"plant": raw.get("plant"), "command": raw.get("command"),
              "seed": (raw.get("noise") or {}).get("seed")}
    return json.dumps(shared, sort_keys=True)


def run_metrics(scn: ScenarioConfig, traj: Trajectory, cutoff: float) -> dict:
    err = analysis.signal(traj, "x_err_ideal")
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
        "hf_content_u": analysis.hf_content(traj, cutoff),
        "max_abs_u": analysis.linf_norm(traj, "u"),
        "bound_kind": report.kind,
        "bound_value": report.bound_value,
        "bound_observed": report.observed,
        "bound_satisfied": report.satisfied,
    }


def cmd_compare(args) -> int:
    try:
        loaded = [load_config(c) for c in args.configs]
    except ConfigError as exc:
        print(f"[flmrac] config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    keys = {_compare_key(raw) for _, raw in loaded}
    if len(keys) != 1:
        print("[flmrac] compare requires identical plant, command and noise seed "
              "across configs", file=sys.stderr)
        return EXIT_VALIDATION

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    try:
        for scn, _ in loaded:
            traj, scn = _run_with_retries(scn)
            rows.append(run_metrics(scn, traj, args.cutoff))
    except DivergenceError as exc:
        print(f"[flmrac] {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE

    report_path = out_dir / "compare_report.json"
    report_path.write_text(json.dumps({"cutoff_rad_s": args.cutoff, "runs": rows},
                                      indent=2, sort_keys=True) + "\n")
    cols = ["name", "gamma", "kappa", "eta", "tracking_linf", "tracking_linf_post",
            "hf_content_u", "max_abs_u", "bound_satisfied"]
    widths = {c: max(len(c), *(len(_cell(r[c])) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(_cell(r[c]).ljust(widths[c]) for c in cols))
    print(f"[flmrac] wrote {report_path}")
    return EXIT_OK


def _cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return f"{v:.5g}"
    return str(v)


def cmd_bode(args) -> int:
    if args.points < 2 or args.omega_min <= 0 or args.omega_max <= args.omega_min:
        print("[flmrac] bode needs points >= 2 and 0 < omega-min < omega-max",
              file=sys.stderr)
        return EXIT_VALIDATION
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = np.logspace(math.log10(args.omega_min), math.log10(args.omega_max), args.points)
    grid[0], grid[-1] = args.omega_min, args.omega_max
    mag_db, phase_deg = [], []
    for w in grid:
        g = analysis.loop_transfer(args.gamma, args.kappa, args.eta, args.alpha, float(w))
        mag_db.append(20.0 * math.log10(abs(g)))
        phase_deg.append(math.degrees(analysis.loop_phase(args.gamma, args.kappa,
                                                          args.eta, args.alpha, float(w))))
    stem = f"bode_g{args.gamma:g}_k{args.kappa:g}_e{args.eta:g}"
    csv_path = out_dir / f"{stem}.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write("omega,mag_db,phase_deg\n")
        for w, mg, ph in zip(grid, mag_db, phase_deg):
            fh.write(f"{_fmt(w)},{_fmt(mg)},{_fmt(ph)}\n")
    try:
        rep = analysis.margins(args.gamma, args.kappa, args.eta, args.alpha)
        rep_dict = rep.as_dict()
    except NoCrossoverError:
        rep_dict = {"gain_crossover_rad_s": None, "phase_margin_deg": None,
                    "delay_margin_s": None,
                    "low_freq_gain_db": 20.0 * math.log10(abs(analysis.loop_transfer(
                        args.gamma, args.kappa, args.eta, args.alpha, analysis.LOW_FREQ_EDGE))),
                    "high_freq_gain_db": 20.0 * math.log10(abs(analysis.loop_transfer(
                        args.gamma, args.kappa, args.eta, args.alpha, analysis.HIGH_FREQ_POINT)))}
    rep_path = out_dir / f"{stem}_margins.json"
    rep_path.write_text(json.dumps(rep_dict, indent=2, sort_keys=True) + "\n")
    dm = rep_dict["delay_margin_s"]
    print(f"[flmrac] wrote {csv_path}; delay margin = "
          f"{'none' if dm is None else f'{dm:.4g} s'}")
    return EXIT_OK


def cmd_plot(args) -> int:
    csv_path = Path(args.csv)
    if not csv_path.exists():
        print(f"[flmrac] no such CSV: {csv_path}", file=sys.stderr)
        return EXIT_VALIDATION
    data = read_csv_columns(csv_path)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.bode:
        needed = ("omega", "mag_db", "phase_deg")
        if any(c not in data for c in needed):
            print(f"[flmrac] bode plot needs columns {needed}", file=sys.stderr)
            return EXIT_VALIDATION
        svg_bode(data["omega"], data["mag_db"], data["phase_deg"], out,
                 title=csv_path.stem)
        print(f"[flmrac] wrote {out}")
        return EXIT_OK
    columns = [c for c in (args.columns or "").split(",") if c]
    if not columns:
        print("[flmrac] empty column selection", file=sys.stderr)
        return EXIT_VALIDATION
    missing = [c for c in columns if c not in data]
    if missing:
        print(f"[flmrac] unknown columns: {missing}; available: "
              f"{sorted(data)}", file=sys.stderr)
        return EXIT_VALIDATION
    xcol = args.x
    if xcol not in data:
        print(f"[flmrac] unknown x column {xcol!r}", file=sys.stderr)
        return EXIT_VALIDATION
    series = [(c, data[xcol], data[c]) for c in columns]
    svg_timeseries(series, out, xlabel=xcol, title=csv_path.stem)
    print(f"[flmrac] wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flmrac",
        description="Frequency-limited MRAC simulation and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario file")
    p_run.add_argument("--config", required=True,
                       help="scenario file path or bundled scenario name")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed-override", type=int, default=None)
    p_run.add_argument("--step-size", type=float, default=None)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several scenarios under one seed")
    p_cmp.add_argument("configs", nargs="+",
                       help="scenario files sharing plant, command and seed")
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--cutoff", type=float, default=DEFAULT_HF_CUTOFF,
                       help="high-frequency cutoff for the control spectrum metric (rad/s)")
    p_cmp.set_defaults(func=cmd_compare)

    p_bode = sub.add_parser("bode", help="loop-gain frequency response and margins")
    p_bode.add_argument("--gamma", type=float, required=True)
    p_bode.add_argument("--kappa", type=float, required=True)
    p_bode.add_argument("--eta", type=float, required=True)
    p_bode.add_argument("--alpha", type=float, default=1.0)
    p_bode.add_argument("--omega-min", type=float, default=1e-3)
    p_bode.add_argument("--omega-max", type=float, default=1e4)
    p_bode.add_argument("--points", type=int, default=400)
    p_bode.add_argument("--out", required=True)
    p_bode.set_defaults(func=cmd_bode)

    p_plot = sub.add_parser("plot", help="render a CSV to a standalone SVG")
    p_plot.add_argument("--csv", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--columns", default="",
                        help="comma-separated column names to draw")
    p_plot.add_argument("--x", default="t", help="x-axis column (default t)")
    p_plot.add_argument("--bode", action="store_true",
                        help="dual-panel magnitude/phase layout")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
