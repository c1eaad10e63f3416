"""Command-line front end: the scenario file format, CSV and SVG writers, manifests
and the `flmrac` commands, which write a run's figures as `analysis` computes them:
`analysis.bound_report_for` for `run`, an `analysis.run_metrics` row per `compare`
member.

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
import functools
import hashlib
import json
import math
import sys
import typing
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, analysis
from .analysis import (DEFAULT_HF_CUTOFF, MarginReport, NoCrossoverError, bound_report_for,
                       run_metrics)
from .controllers import ControllerConfig
from .matrixcore import LyapunovPair
from .simulator import (ConfigError, DivergenceError, ScenarioConfig, Trajectory,
                        closed_loop, run)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3

#: Log-spaced frequencies bode draws over analysis.MARGIN_BAND.
BODE_POINTS = 400


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

#: JSON types, and their name in an error, of the model's scalar field types.
_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string")}
#: File keys that differ from the field name, for the writer and the reader alike.
_FILE_KEYS = {"W_p_base": "W_p", "lyap": "R"}
#: Array fields written as a list of numbers; every other array is a matrix.
_VECTOR_FIELDS = {"Lambda", "x0", "x_r0"}


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _object(raw, path: str, keys) -> dict:
    """raw, checked to be a JSON object whose keys are all in keys."""
    if not isinstance(raw, dict):
        raise ConfigError(path or "<root>", "expected an object")
    unknown = raw.keys() - set(keys)
    if unknown:
        raise ConfigError(_at(path, min(unknown)), "unknown field")
    return raw


def _list(raw, path: str) -> list:
    if not isinstance(raw, list):
        raise ConfigError(path, "expected a list")
    return raw


def _numbers(values: list, path: str) -> np.ndarray:
    """values as a float array, each a finite number (JSON parsing also accepts
    NaN and Infinity)."""
    try:
        arr = np.array([float(v) for v in values], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(path, str(exc)) from None
    if not np.all(np.isfinite(arr)):
        raise ConfigError(path, "NaN and infinity are not allowed")
    return arr


def _matrix(raw, path: str) -> np.ndarray:
    """A {rows, cols, data} object as a rows x cols array."""
    raw = _object(raw, path, ("rows", "cols", "data"))
    rows, cols = (_parse(raw.get(key), f"{path}.{key}", int) for key in ("rows", "cols"))
    data = raw.get("data")
    if data is None:
        raise ConfigError(f"{path}.data", "missing required field")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ConfigError(f"{path}.data", f"expected {rows * cols} entries")
    return _numbers(data, f"{path}.data").reshape(rows, cols)


def _matrix_dict(arr: np.ndarray) -> dict:
    a = np.atleast_2d(np.asarray(arr, dtype=float))
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "data": [float(v) for v in a.ravel()]}


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), raising its ValueError or KeyError as a ConfigError at
    `path`; a ConfigError keeps its path."""
    try:
        return make(*args, **kwargs)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(path, str(exc.args[0])) from None
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


@functools.cache
def _file_fields(cls) -> tuple:
    """(name, file key, type, required) of each init field of the dataclass cls."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, _FILE_KEYS.get(f.name, f.name), hints[f.name],
                  f.default is dataclasses.MISSING)
                 for f in dataclasses.fields(cls) if f.init)


def _parse(raw, path: str, kind, **known):
    """The JSON value raw at path read as the field type kind: the mirror of
    `_plain`.  A dataclass takes the fields in known as given."""
    if raw is None:
        raise ConfigError(path, "missing required field")
    if kind in _SCALARS:
        json_types, name = _SCALARS[kind]
        if isinstance(raw, bool) or not isinstance(raw, json_types):
            raise ConfigError(path, f"expected {name}, got {raw!r}")
        return float(_numbers([raw], path)[0]) if kind is float else raw
    if kind is np.ndarray:
        if path.rpartition(".")[2] in _VECTOR_FIELDS:
            return _numbers(_list(raw, path), path)
        return _matrix(raw, path)
    if dataclasses.is_dataclass(kind):
        fields = _file_fields(kind)
        if len(fields) == 1:  # written as its one field's value
            return _build(path, kind, _parse(raw, path, fields[0][2]))
        return _build(path, kind, **_fields(kind, raw, path, **known))
    item = typing.get_args(kind)[0]  # of tuple[item, ...] or item | None
    if typing.get_origin(kind) is not tuple:
        return _parse(raw, path, item)
    if item is float:
        return tuple(_numbers(_list(raw, path), path))
    return tuple(_parse(v, f"{path}[{i}]", item) for i, v in enumerate(_list(raw, path)))


def _fields(cls, raw, path: str, **known) -> dict:
    """cls's init fields from the JSON object raw at path, apart from those given in
    known; a missing or null key leaves out a field that has a default."""
    fields = _file_fields(cls)
    raw = _object(raw, path, [key for _, key, _, _ in fields])
    for name, key, kind, required in fields:
        if name not in known and (required or raw.get(key) is not None):
            known[name] = _parse(raw.get(key), _at(path, key), kind)
    return known


def dict_to_scenario(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed config dict by the walk of the model's
    fields; a malformed field raises ConfigError naming it.  The file adds two
    things: E_p null is an empty E_p, and the controller gives R, not its Lyapunov
    pair, whose P solves the equation of A - B K once K is read."""
    fields = _fields(ScenarioConfig, raw, "", E_p=None, controller=None)
    plant = fields["plant"]
    E_p = _matrix(raw["E_p"], "E_p") if raw.get("E_p") is not None else np.zeros((0, plant.n_p))
    controller = _parse(raw.get("controller"), "controller", ControllerConfig, lyap=None)
    _, A_r = closed_loop(plant, E_p, controller.K)
    R = _parse(raw["controller"].get("R"), "controller.R", np.ndarray)
    lyap = _build("controller.R", LyapunovPair.for_closed_loop, A_r, R)
    fields.update(E_p=E_p, controller=dataclasses.replace(controller, lyap=lyap))
    return _build("<root>", ScenarioConfig, **fields)


def _plain(value):
    """value in JSON form: a dataclass as a dict of its init fields by file key, a
    2-D array as a matrix dict, a 1-D array as a float list and a tuple or list as
    a list."""
    if dataclasses.is_dataclass(value):
        fields = _file_fields(type(value))
        if len(fields) == 1:  # written as its one field's value
            return _plain(getattr(value, fields[0][0]))
        return {key: _plain(getattr(value, name)) for name, key, _, _ in fields}
    if isinstance(value, np.ndarray):
        return _matrix_dict(value) if value.ndim == 2 else [float(v) for v in value]
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def scenario_to_dict(scn: ScenarioConfig) -> dict:
    """Normalized dict form of a scenario (the canonical-serialization input):
    the model's fields, apart from the places where the file format differs."""
    out = _plain(scn)
    controller, command = out["controller"], out["command"]
    controller["R"] = controller["R"]["R"]  # P is solved from R at load
    out["E_p"] = _matrix_dict(scn.E_p) if scn.E_p.size else None
    if scn.command.kind != "custom":
        del command["times"], command["values"]
    return out


def canonical_text(data: dict) -> str:
    """The one JSON text format of every file flmrac writes: standard JSON, so a
    NaN or infinite number raises ValueError."""
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _overflow_as_null(value):
    """value with each float that is not finite, such as a bound whose arithmetic
    overflows, as None, which canonical_text writes as null."""
    if isinstance(value, dict):
        return {k: _overflow_as_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_overflow_as_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def serialize_scenario(scn: ScenarioConfig) -> str:
    return canonical_text(scenario_to_dict(scn))


def load_config(path: str) -> tuple[ScenarioConfig, dict]:
    """Parse a config file, or a bundled scenario named without directory or
    suffix where no file has that name (a directory, such as an earlier run's
    --out, does not hide it), into a scenario; a file that cannot be read raises
    ConfigError."""
    p = Path(path)
    if p.name == path and not p.suffix and not p.is_file():
        p = bundled_scenario_path(path) or p
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError("<file>", f"no such config file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON in {p}: {exc}") from None
    except (OSError, ValueError) as exc:  # ValueError: bytes not UTF-8, a null byte in the path
        raise ConfigError("<file>", f"cannot read {p}: {exc}") from None
    return dict_to_scenario(raw), raw


def bundled_scenario_path(name: str) -> Path | None:
    candidate = resources.files("flmrac").joinpath("scenarios").joinpath(f"{name}.cfg")
    try:
        return Path(str(candidate)) if candidate.is_file() else None
    except (OSError, AttributeError):
        return None


def list_bundled() -> list[str]:
    base = resources.files("flmrac").joinpath("scenarios")
    return sorted(p.name[:-4] for p in base.iterdir() if p.name.endswith(".cfg"))


# ---------------------------------------------------------------------------
# Trajectory CSV
# ---------------------------------------------------------------------------

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


def write_csv(path: Path, header: list[str], table: np.ndarray) -> None:
    """The header line, then each row of table as "%.17g" values."""
    # One format per row; "%.17g" % v writes the same bytes as format(v, ".17g").
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row_format % tuple(row.tolist()) for row in table)


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    n = traj.x.shape[1]
    m = traj.u.shape[1]
    sn = traj.W_hat.shape[1]
    n_c = traj.c.shape[1]
    N = len(traj)
    table = np.column_stack([traj.t, traj.x, traj.x_r, traj.x_ri, traj.e, traj.e_L,
                             traj.e_H, traj.u, traj.W_hat.reshape(N, -1), traj.c])
    write_csv(path, trajectory_header(n, m, sn - n, n_c), table)


def read_csv_columns(path: Path) -> dict[str, np.ndarray]:
    """The columns of a numeric CSV by header name.  A file that cannot be read as
    text, or has a repeated header, no data row, a row of another length than the
    header or a cell that is not a finite number, raises ConfigError at --csv."""
    try:
        with open(path, newline="") as fh:
            header, *rows = [r for r in csv.reader(fh) if r] or [[]]
        # A ragged row is left out here, so that data has fewer rows than the file.
        data = np.array([list(map(float, row)) for row in rows if len(row) == len(header)])
    except (OSError, ValueError) as exc:  # ValueError: also bytes that are not UTF-8
        raise ConfigError("--csv", str(exc)) from None
    if not rows or data.shape != (len(rows), len(header)) or not np.isfinite(data).all():
        raise ConfigError("--csv", f"{path} needs a header and rows of one finite number per column")
    repeated = [name for j, name in enumerate(header) if name in header[:j]]
    if repeated:
        raise ConfigError("--csv", f"{path} repeats the header {repeated[0]!r}")
    return {name: data[:, j] for j, name in enumerate(header)}


# ---------------------------------------------------------------------------
# SVG plotting (no plotting dependency; standalone vector output)
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f")
_MAX_POLYLINE_POINTS = 2000


def _decimate(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every step-th point of a long polyline, and its last point."""
    if x.size <= _MAX_POLYLINE_POINTS:
        return x, y
    step = int(math.ceil(x.size / _MAX_POLYLINE_POINTS))
    if (x.size - 1) % step:
        return np.append(x[::step], x[-1]), np.append(y[::step], y[-1])
    return x[::step], y[::step]


def _axis_ticks(lo: float, hi: float, logx: bool = False) -> list[float]:
    """Each power of ten from lo to hi on a log axis (lo and hi when none lies between
    them), else five evenly spaced ticks."""
    if logx:
        decades = range(math.ceil(math.log10(lo)), math.floor(math.log10(hi)) + 1)
        return [10.0**d for d in decades] or [lo, hi]
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / 4 for i in range(5)]


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
        for xv in _axis_ticks(*self.xlim, self.logx):
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(doc)


def svg_panels(rows, path: Path, xlabel: str, title: str = "", logx: bool = False) -> None:
    """Panels stacked over one x axis; rows: list of (ylabel, [(label, x, y), ...])."""
    width, height = 860, 40 + 300 * len(rows)
    parts: list[str] = []
    if title:
        parts.append(f'<text x="{width / 2}" y="24" font-size="14" '
                     f'text-anchor="middle">{title}</text>')
    xs = np.concatenate([x for _, series in rows for _, x, _ in series])
    xlim = (float(np.min(xs)), float(np.max(xs)))
    color = 0
    for r, (ylabel, series) in enumerate(rows):
        ys = np.concatenate([y for _, _, y in series])
        lo, hi = float(np.min(ys)), float(np.max(ys))
        pad = 0.05 * (hi - lo or 1.0)
        panel = _Panel(70, 45 + 300 * r, 765, 250, xlim, (lo - pad, hi + pad), logx=logx)
        panel.frame(parts, xlabel if r == len(rows) - 1 else "", ylabel)
        for i, (label, x, y) in enumerate(series):
            stroke = _PALETTE[color % len(_PALETTE)]
            color += 1
            panel.polyline(parts, x, y, stroke)
            ly = panel.y0 + 13 + 16 * i
            parts.append(f'<line x1="{width - 180}" y1="{ly - 4}" x2="{width - 155}" '
                         f'y2="{ly - 4}" stroke="{stroke}" stroke-width="2"/>')
            parts.append(f'<text x="{width - 150}" y="{ly}" font-size="11">{label}</text>')
    _finish_svg(parts, width, height, path)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def make_manifest(scn: ScenarioConfig, outputs: list[str]) -> dict:
    canon = serialize_scenario(scn)
    return {
        "scenario": scn.name,
        "scenario_hash": hashlib.sha256(canon.encode()).hexdigest(),
        "seed": scn.noise.seed,
        "h": scn.h,
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

def _warn_gain_window(scn: ScenarioConfig) -> None:
    # The filter should pass strictly less bandwidth than the mismatch gain
    # injects; eta above kappa collapses the architecture toward the
    # classical one and is almost certainly a tuning mistake.
    if scn.controller.eta > scn.controller.kappa:
        print(f"[flmrac] warning: eta ({scn.controller.eta:g}) exceeds kappa "
              f"({scn.controller.kappa:g}); the filtered-error design expects "
              "eta well below kappa", file=sys.stderr)


def cmd_run(args) -> int:
    scn, _ = load_config(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _warn_gain_window(scn)
    traj = run(scn)

    csv_path = out_dir / f"{scn.name}.csv"
    write_trajectory_csv(traj, csv_path)
    report = bound_report_for(scn, traj)
    bounds_path = out_dir / f"{scn.name}_bounds.json"
    bounds_path.write_text(canonical_text(_overflow_as_null(dataclasses.asdict(report))))
    manifest = make_manifest(scn, [str(csv_path), str(bounds_path)])
    manifest_path = out_dir / f"{scn.name}_manifest.json"
    manifest_path.write_text(canonical_text(manifest))

    print(f"[flmrac] {scn.name}: {len(traj)} samples to t={traj.t[-1]:g} s")
    print(f"[flmrac] bound[{report.kind}] = {report.bound_value:.6g}, "
          f"observed = {report.observed:.6g}, satisfied = {report.satisfied}")
    print(f"[flmrac] wrote {csv_path}")
    return EXIT_OK


def _compare_key(scn: ScenarioConfig) -> str:
    """What compare members must share: the parsed plant and command, and the noise seed."""
    parsed = scenario_to_dict(scn)
    return canonical_text({"plant": parsed["plant"], "command": parsed["command"],
                           "seed": scn.noise.seed})


def cmd_compare(args) -> int:
    scenarios = [load_config(c)[0] for c in args.configs]
    if len({_compare_key(scn) for scn in scenarios}) != 1:
        raise ConfigError("configs", "compare requires identical plant, command and noise seed")
    for scn in scenarios:
        if scn.samples < analysis.MIN_SPECTRUM_SAMPLES or scn.steps % scn.record_stride:
            raise ConfigError("record_stride", f"compare member {scn.name!r} records {scn.samples} "
                              f"samples over {scn.steps} steps; hf_content needs "
                              f"{analysis.MIN_SPECTRUM_SAMPLES} or more, evenly spaced")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for scn in scenarios:
        _warn_gain_window(scn)
        rows.append(run_metrics(scn, run(scn)))

    report_path = out_dir / "compare_report.json"
    report_path.write_text(canonical_text({"cutoff_rad_s": DEFAULT_HF_CUTOFF,
                                           "runs": _overflow_as_null(rows)}))
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
    if isinstance(v, float):
        return f"{v:.5g}"
    return str(v)


def _bode_stem(gamma: float, kappa: float, eta: float, alpha: float) -> str:
    """File stem of one loop's outputs: "%g" values if alpha = 1 and each reads back
    exactly from them, else 17 significant digits and alpha, so loops never share one."""
    loop = (gamma, kappa, eta)
    if alpha == 1.0 and all(float(f"{v:g}") == v for v in loop):
        return "bode_g{:g}_k{:g}_e{:g}".format(*loop)
    return "bode_g{:.17g}_k{:.17g}_e{:.17g}_a{:.17g}".format(*loop, alpha)


@functools.cache
def bode_band() -> tuple[np.ndarray, str]:
    """bode's frequencies, the same for every loop, built once per process:
    BODE_POINTS log-spaced over analysis.MARGIN_BAND with its exact ends, as a
    read-only array, and the text of bode's CSV with each row's omega cell written
    as write_csv writes it and its magnitude and phase left as "%.17g" fields."""
    lo, hi = analysis.MARGIN_BAND
    grid = np.logspace(math.log10(lo), math.log10(hi), BODE_POINTS)
    grid[0], grid[-1] = lo, hi
    grid.flags.writeable = False
    return grid, "omega,mag_db,phase_deg\n" + "".join(
        ["%.17g,%%.17g,%%.17g\n" % w for w in grid.tolist()])


def cmd_bode(args) -> int:
    grid, csv_template = bode_band()
    loop = (args.gamma, args.kappa, args.eta, args.alpha)
    try:
        mag_db = analysis.loop_gain_db(*loop, grid)
    except ValueError as exc:
        # The message starts with the loop parameter, which is also the flag's name.
        raise ConfigError(f"--{str(exc).split()[0]}", str(exc)) from None
    phase_deg = np.degrees(analysis.loop_phase(*loop, grid))
    try:
        rep_dict = analysis.margins(*loop).as_dict()
    except NoCrossoverError:
        rep_dict = MarginReport(None, None, None, *analysis.band_gains_db(*loop)).as_dict()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = _bode_stem(*loop)
    csv_path = out_dir / f"{stem}.csv"
    values = np.column_stack([mag_db, phase_deg]).ravel().tolist()
    csv_path.write_text(csv_template % tuple(values), newline="")
    rep_path = out_dir / f"{stem}_margins.json"
    rep_path.write_text(canonical_text(rep_dict))
    dm = rep_dict["delay_margin_s"]
    print(f"[flmrac] wrote {csv_path}; delay margin = "
          f"{'none' if dm is None else f'{dm:.4g} s'}")
    return EXIT_OK


def cmd_plot(args) -> int:
    csv_path = Path(args.csv)
    data = read_csv_columns(csv_path)
    columns = [c for c in args.columns.split(",") if c]
    if not columns:
        needed = ("omega", "mag_db", "phase_deg")
        if any(c not in data for c in needed) or not np.all(data["omega"] > 0.0):
            raise ConfigError("--csv", f"without --columns, plot draws a Bode plot, which "
                                       f"needs the columns {needed} and omega > 0")
        rows = [(ylabel, [(c, data["omega"], data[c])])
                for c, ylabel in (("mag_db", "magnitude [dB]"), ("phase_deg", "phase [deg]"))]
        xlabel = "omega [rad/s]"
    else:
        missing = [c for c in columns if c not in data]
        if missing:
            raise ConfigError("--columns",
                              f"unknown columns {missing}; available: {sorted(data)}")
        xcol = xlabel = args.x
        if xcol not in data:
            raise ConfigError("--x", f"unknown column {xcol!r}")
        rows = [("", [(c, data[xcol], data[c]) for c in columns])]
    out = Path(args.out)
    svg_panels(rows, out, xlabel, title=csv_path.stem, logx=not columns)
    print(f"[flmrac] wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flmrac",
        description="Frequency-limited MRAC simulation and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario file")
    p_run.add_argument("--config", required=True,
                       help="scenario file path or bundled scenario name")
    p_run.add_argument("--out", required=True, help="output directory")

    p_cmp = sub.add_parser("compare", help="run several scenarios under one seed")
    p_cmp.add_argument("configs", nargs="+",
                       help="scenario files sharing plant, command and seed")
    p_cmp.add_argument("--out", required=True)

    p_bode = sub.add_parser("bode", help="loop-gain frequency response and margins")
    p_bode.add_argument("--gamma", type=float, required=True)
    p_bode.add_argument("--kappa", type=float, required=True)
    p_bode.add_argument("--eta", type=float, required=True)
    p_bode.add_argument("--alpha", type=float, default=1.0)
    p_bode.add_argument("--out", required=True)

    p_plot = sub.add_parser("plot", help="render a CSV to a standalone SVG")
    p_plot.add_argument("--csv", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--columns", default="",
                        help="comma-separated column names to draw against --x; "
                             "without them, the Bode layout of a bode CSV")
    p_plot.add_argument("--x", default="t", help="x-axis column (default t)")
    return parser


def _check_out(args) -> None:
    """--out is the output directory of run, compare and bode, and the SVG file of
    plot.  An --out that cannot be one (a path of the other kind, or one under a
    file) raises ConfigError at --out, before any run or render starts."""
    out = Path(args.out)
    if args.command == "plot":
        if out.is_dir():
            raise ConfigError("--out", f"{out} is a directory, not an SVG file")
        out = out.parent
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError("--out", f"{existing} is a file, not a directory")


def main(argv=None) -> int:
    """Run cmd_<subcommand>; a ConfigError exits 2 and a DivergenceError exits 3."""
    args = build_parser().parse_args(argv)
    try:
        _check_out(args)
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"[flmrac] config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as exc:
        print(f"[flmrac] {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
