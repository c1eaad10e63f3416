"""flmrac benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload run_dense --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the benchmark imports flmrac from
`src/` of that checkout and nothing else.  Workloads (see workloads.py):
run_dense, compare4, design_sweep.

--trace 0 measures end to end with the program untouched: the user-facing
call is repeated for --seconds and `wall_s` is the median; `setup_s` is the
median of several cold starts in fresh interpreters; `peak_rss_mb` is this
process's peak resident memory.

--trace 1 runs an untraced pass and then a traced pass (half of --seconds
each), wraps public flmrac functions in spans only for the traced pass, adds
the micro probes, and reports per-layer metrics with the tracing overhead.

Every operation's outputs are checked.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Human-readable
lines above it print every metric by name and unit, with provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Cold starts per run for setup_s; the median is reported.
SETUP_REPEATS = 7
#: Problems printed per run (all of them are counted).
MAX_PROBLEMS_SHOWN = 10

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: Spans recorded in the traced pass (see make_targets for what each wraps).
SPAN_NAMES = (
    "simulator.run", "simulator.rk4_step", "simulator.deriv", "simulator.record",
    "plantmodel.eval_basis", "plantmodel.eval_plant", "plantmodel.W_p",
    "plantmodel.aggregate_true_weights", "controllers.proj_matrix",
    "matrixcore.sym_eig_extremes", "analysis.optimal_xi", "analysis.margins",
    "analysis.hf_content", "analysis.spectrum_fraction_above", "simcli.load_config",
    "simcli.write_trajectory_csv", "simcli.bound_report_for", "simcli.bode",
    "simcli.member", "simcli.run_metrics",
)
#: Median inclusive duration per call: span -> (metric suffix, scale from seconds).
PER_CALL = {
    "simulator.run": ("s", 1.0),
    "simulator.rk4_step": ("us", 1e6),
    "simulator.deriv": ("us", 1e6),
    "plantmodel.eval_basis": ("us", 1e6),
    "plantmodel.W_p": ("us", 1e6),
    "controllers.proj_matrix": ("us", 1e6),
    "matrixcore.sym_eig_extremes": ("us", 1e6),
    "analysis.optimal_xi": ("ms", 1e3),
    "analysis.margins": ("ms", 1e3),
    "analysis.hf_content": ("ms", 1e3),
    "simcli.bound_report_for": ("ms", 1e3),
    "simcli.bode": ("ms", 1e3),
}
PROBES = (
    ("controllers.proj_matrix.inside_us", "us"),
    ("controllers.proj_matrix.boundary_us", "us"),
    ("refsys.kernels.us", "us"),
    ("matrixcore.solve_lyapunov.us", "us"),
    ("analysis.spectrum_fraction_above.ms_9001", "ms"),
    ("simcli.load_config.ms", "ms"),
)
DERIVED = (
    ("simulator.run.steps", "count"),
    ("simulator.record.s", "s"),
    ("controllers.proj_active_frac", "ratio"),
    ("simcli.write_trajectory_csv.us_per_row", "us"),
    ("simcli.csv_bytes", "bytes"),
    ("simcli.compare.pool_overhead_s", "s"),
    ("simcli.retries", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)
PER_LAYER = (
    tuple((f"{s}.calls", "count") for s in SPAN_NAMES)
    + tuple((f"{s}.self_s", "s") for s in SPAN_NAMES)
    + tuple((f"{s}.{suffix}", suffix) for s, (suffix, _) in PER_CALL.items())
    + PROBES + DERIVED
)

SETUP_SNIPPET = """
import sys, time, json
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import flmrac
from flmrac import simcli, simulator
for path in sys.argv[2:]:
    scn, _ = simcli.load_config(path)
    simulator.assemble(scn)
print(json.dumps({"setup_s": time.perf_counter() - t0, "module": flmrac.__file__}))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--small", action="store_true",
                   help="shorter horizon and grid (the benchmark's smoke test)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed, with their problems and CPU times."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cpus: list[float] = []  # process CPU seconds of each successful operation

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)


def run_once(wl, tally: Tally) -> float | None:
    """Time one operation and check its outputs; None if it failed."""
    tally.attempted += 1
    wl.clear_outputs()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        wl.op()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        problems = wl.check()
    except Exception as exc:  # any failure of the program counts against fail_frac
        problems = [f"{type(exc).__name__}: {exc}"]
    if problems:
        tally.fail(problems)
        return None
    tally.cpus.append(cpu)
    return wall


def measure(wl, seconds: float, tally: Tally, on_start=None) -> list[float]:
    """Repeat the operation for `seconds` (at least once); return its walls."""
    walls: list[float] = []
    deadline = time.perf_counter() + seconds
    rep = 0
    while not walls or time.perf_counter() < deadline:
        if on_start is not None:
            on_start(rep)
        wall = run_once(wl, tally)
        rep += 1
        if wall is not None:
            walls.append(wall)
        elif time.perf_counter() >= deadline:
            break
    return walls


def setup_times(wl) -> list[float]:
    """Cold import + load_config + assemble, each in a fresh interpreter."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), *map(str, wl.config_paths)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(rec["module"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported flmrac from {rec['module']}, not {SRC}")
        out.append(rec["setup_s"])
    return out


def tail(walls: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    if len(walls) < 11:
        return None
    ordered = sorted(walls)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


# ---------------------------------------------------------------------------
# Traced pass
# ---------------------------------------------------------------------------

def make_targets():
    from flmrac import analysis, controllers, matrixcore, plantmodel, simcli, simulator
    from tracer import Target

    def proj_post(args, result, counters):
        Theta, _, spec = args
        tmax2 = spec.theta_max ** 2
        phis = ((spec.eps_theta + 1.0) * (Theta * Theta).sum(axis=0) - tmax2) / (spec.eps_theta * tmax2)
        counters["proj_active"] = counters.get("proj_active", 0) + int((phis >= 0).any())

    def csv_post(args, result, counters):
        traj, path = args
        counters["csv_rows"] = counters.get("csv_rows", 0) + len(traj)
        counters["csv_bytes"] = counters.get("csv_bytes", 0) + os.path.getsize(path)

    spec = [
        ("simulator.run", simcli, "run", {}),
        ("simulator.run", simulator, "run", {}),
        ("simulator.rk4_step", simulator, "rk4_step", {}),
        ("simulator.deriv", simulator.ClosedLoopSystem, "deriv", {}),
        # control_at runs once per recorded row, inside run's recording step.
        ("simulator.record", simulator.ClosedLoopSystem, "control_at", {}),
        ("plantmodel.eval_basis", plantmodel, "eval_basis", {}),
        ("plantmodel.eval_plant", plantmodel.BasisSpec, "eval_plant", {}),
        ("plantmodel.W_p", plantmodel.UncertaintyTruth, "W_p", {}),
        ("plantmodel.aggregate_true_weights", plantmodel, "aggregate_true_weights", {}),
        ("plantmodel.aggregate_true_weights", simcli, "aggregate_true_weights", {}),
        ("controllers.proj_matrix", controllers, "proj_matrix", {"post": proj_post}),
        ("matrixcore.sym_eig_extremes", matrixcore, "sym_eig_extremes", {}),
        ("matrixcore.sym_eig_extremes", analysis, "sym_eig_extremes", {}),
        ("analysis.optimal_xi", analysis, "optimal_xi", {}),
        ("analysis.margins", analysis, "margins", {}),
        ("analysis.hf_content", analysis, "hf_content", {}),
        ("analysis.spectrum_fraction_above", analysis, "spectrum_fraction_above", {}),
        ("simcli.load_config", simcli, "load_config", {}),
        ("simcli.write_trajectory_csv", simcli, "write_trajectory_csv", {"post": csv_post}),
        ("simcli.bound_report_for", simcli, "bound_report_for", {}),
        ("simcli.bode", simcli, "cmd_bode", {}),
        # One compare member: its run with retries, then its metrics row.
        ("simcli.member", simcli, "_run_with_retries", {}),
        ("simcli.run_metrics", simcli, "run_metrics", {}),
    ]
    targets, missing = [], []
    for name, owner, attr, kw in spec:
        if attr in vars(owner):
            targets.append(Target(name, owner, attr, **kw))
        else:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return targets, missing


def layer_metrics(tracer, spans, traced_walls, untraced_walls, wl, attempted):
    """Per-layer metrics from the traced pass, all normalised per operation."""
    reps = len(traced_walls)
    names = np.array(tracer.names)
    by_name = {n: (names[spans["name"]] == n) & (spans["rep"] >= 0) for n in SPAN_NAMES}
    m: dict[str, float] = {}
    for n in SPAN_NAMES:
        sel = by_name[n]
        m[f"{n}.calls"] = float(np.count_nonzero(sel)) / reps
        m[f"{n}.self_s"] = float(spans["self"][sel].sum()) / reps
    for n, (suffix, scale) in PER_CALL.items():
        sel = by_name[n]
        m[f"{n}.{suffix}"] = float(np.median(spans["dur"][sel])) * scale if sel.any() else 0.0

    counters = tracer.counters()
    rk4, runs = m["simulator.rk4_step.calls"], m["simulator.run.calls"]
    m["simulator.run.steps"] = rk4 / runs if runs else 0.0
    m["simulator.record.s"] = float(spans["cpu_s"][by_name["simulator.record"]].sum()) / reps
    proj = np.count_nonzero(by_name["controllers.proj_matrix"])
    m["controllers.proj_active_frac"] = counters.get("proj_active", 0) / float(proj) if proj else 0.0
    rows = counters.get("csv_rows", 0)
    csv_s = float(spans["cpu_s"][by_name["simcli.write_trajectory_csv"]].sum())
    m["simcli.write_trajectory_csv.us_per_row"] = 1e6 * csv_s / rows if rows else 0.0
    m["simcli.csv_bytes"] = counters.get("csv_bytes", 0) / reps

    # compare: op wall minus what its members used (thread CPU, since member
    # spans overlap on the pool) minus the config loads on the calling thread.
    overheads = []
    members = by_name["simcli.member"] | by_name["simcli.run_metrics"]
    if by_name["simcli.run_metrics"].any():
        for rep, wall in enumerate(traced_walls):
            in_rep = spans["rep"] == rep
            cpu = float(spans["cpu_s"][members & in_rep].sum())
            loads = float(spans["cpu_s"][by_name["simcli.load_config"] & in_rep].sum())
            overheads.append(wall - cpu - loads)
    m["simcli.compare.pool_overhead_s"] = statistics.median(overheads) if overheads else 0.0
    m["simcli.retries"] = wl.retries / attempted

    m["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    m["trace.traced_wall_s"] = statistics.median(traced_walls)
    m["trace.overhead_s"] = m["trace.traced_wall_s"] - m["trace.untraced_wall_s"]
    m["trace.spans"] = float(np.count_nonzero(spans["rep"] >= 0)) / reps
    return m


def trace_problems(m: dict, wl) -> list[str]:
    """Count checks on the traced pass: 4 derivative evaluations per RK4 step."""
    problems = []
    if wl.members and m["simcli.retries"] == 0:
        steps = wl.members * wl.steps_per_member
        if m["simulator.rk4_step.calls"] != steps:
            problems.append(f"rk4_step calls per op {m['simulator.rk4_step.calls']} != {steps}")
        if m["simulator.deriv.calls"] and m["simulator.deriv.calls"] != 4 * steps:
            problems.append(f"deriv calls per op {m['simulator.deriv.calls']} != 4 x {steps}")
    return problems


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<44} {value!r:>24} {unit:<6} {note}".rstrip())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flmrac" / "__init__.py").is_file():
        print(f"perfbench: no flmrac sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flmrac
    if not Path(flmrac.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported flmrac from {flmrac.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        # Seed generators take non-negative integers; wrap any int onto them.
        wl = WORKLOADS[args.workload](SRC, work, args.seed % 2**64, args.small)
        if args.trace:
            result, record = traced_run(wl, args)
        else:
            result, record = untraced_run(wl, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update({"workload": wl.name, "why": wl.why, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "small": args.small,
                   "inputs": wl.params, "environment": environment(),
                   "flmrac_version": flmrac.__version__, "result": result})
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{wl.name}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"  inputs: {json.dumps(wl.params, sort_keys=True)}")
    print(f"  environment: {json.dumps(record['environment'], sort_keys=True)}")
    fail_frac = result["failed"] / result["attempted"]
    print_metric("fail_frac", fail_frac, "ratio",
                 f"({result['failed']} failed of {result['attempted']} attempted)")
    for problem in record["problems"][:MAX_PROBLEMS_SHOWN]:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps(result))
    return 0


def untraced_run(wl, args):
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace=0")
    print(f"  why: {wl.why}")
    setups = setup_times(wl)
    tally = Tally()
    run_once(wl, tally)  # warm-up: lazy set-up and caches, not timed
    walls = measure(wl, args.seconds, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = statistics.median(walls) if walls else 0.0
    print_metric("wall_s", wall, "s", f"(median of {len(walls)} ops)")
    tl = tail(walls)
    if tl is None:
        print(f"  {'wall_s tail':<44} {'n/a':>24} s      (fewer than 11 ops)")
    else:
        print_metric(f"wall_s_p{tl[0]:.0f}", tl[1], "s",
                     "(highest percentile with >= 10 ops beyond it)")
    print_metric("samples", len(walls), "count")
    # Wall time above CPU time is waiting: the compare pool's GIL hand-offs, or
    # the host not running this process.
    cpus = tally.cpus[-len(walls):] if walls else [0.0]
    print_metric("cpu_s", statistics.median(cpus), "s",
                 "(median process CPU per op; not gated)")
    print_metric("setup_s", statistics.median(setups), "s",
                 f"(median of {len(setups)} cold starts)")
    print_metric("peak_rss_mb", peak_rss_mb, "MB")
    metrics = {"wall_s": wall, "setup_s": statistics.median(setups),
               "peak_rss_mb": peak_rss_mb}
    result = {"correct": tally.failed == 0 and bool(walls), "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END}}
    record = {"walls_s": walls, "cpus_s": cpus, "setups_s": setups, "tail": tl, "problems": tally.problems,
              "retries": wl.retries}
    return result, record


def traced_run(wl, args):
    from probes import run_probes
    from tracer import Tracer

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace=1")
    print(f"  why: {wl.why}")
    targets, missing = make_targets()
    tracer = Tracer(targets)
    tally = Tally()
    run_once(wl, tally)  # warm-up, untraced

    tracer.assert_originals()
    untraced = measure(wl, args.seconds / 2.0, tally)
    tracer.assert_originals()

    tracer.install()
    try:
        traced = measure(wl, args.seconds / 2.0, tally,
                         on_start=lambda rep: setattr(tracer, "rep_id", rep))
    finally:
        tracer.restore()
        tracer.rep_id = -1
    spans = tracer.spans()

    probes = run_probes(args.seed)
    # Failed operations leave no wall time; the run then reports correct: false.
    m = layer_metrics(tracer, spans, traced or [0.0], untraced or [0.0], wl, tally.attempted)
    m.update(probes)
    problems = trace_problems(m, wl)
    if problems:
        tally.fail(problems)
    tracer.save(HERE / "_out" / f"spans_{wl.name}.npz", spans)

    wall = m["trace.untraced_wall_s"]
    print(f"  untraced wall_s {wall!r} s (median of {len(untraced)} ops); "
          f"traced {m['trace.traced_wall_s']!r} s (median of {len(traced)} ops)")
    print(f"  {'layer':<36} {'calls/op':>12} {'self_s/op':>12} {'self/wall':>10}")
    for n in SPAN_NAMES:
        calls, self_s = m[f"{n}.calls"], m[f"{n}.self_s"]
        if calls:
            print(f"  {n:<36} {calls:>12.6g} {self_s:>12.6g} {self_s / wall:>10.2%}")
    if missing:
        print(f"  not traced (attribute absent): {', '.join(missing)}")
    for name, unit in PER_LAYER:
        print_metric(name, m[name], unit)
    print_metric("tracing overhead", m["trace.overhead_s"], "s",
                 "(traced wall_s - untraced wall_s)")
    if wl.members:
        ok = m["simulator.deriv.calls"] == 4 * m["simulator.rk4_step.calls"]
        print(f"  deriv calls per op = 4 x steps per member x {wl.members} members: {ok}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {n: {"value": m[n], "unit": u} for n, u in PER_LAYER}}
    record = {"untraced_walls_s": untraced, "traced_walls_s": traced,
              "problems": tally.problems, "missing_targets": missing,
              "spans_file": f"spans_{wl.name}.npz"}
    return result, record


if __name__ == "__main__":
    sys.exit(main())
