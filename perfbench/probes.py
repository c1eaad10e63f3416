"""Per-layer micro probes: single public functions at wing-rock sizes.

Inputs come from a recorded trajectory state (the first 0.3 s of bundled
wingrock_proposed; n = 3, s = 6, m = 1), so every probe sees realistic
magnitudes.
Each probe reports the median over several batches of calls.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

from flmrac import analysis, controllers, matrixcore, refsys, simcli, simulator

BATCHES = 7


def per_call(fn, calls: int) -> float:
    """Median seconds per call of fn() over BATCHES batches of `calls` calls."""
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def recorded_state(seconds: float = 0.3):
    """Bundled wingrock_proposed, assembled, and its trajectory over `seconds`."""
    scn, _ = simcli.load_config("wingrock_proposed")
    scn = dataclasses.replace(scn, t_final=seconds, record_stride=1)
    return scn, simulator.assemble(scn), simulator.run(scn)


def run_probes(seed: int) -> dict[str, float]:
    """Per-layer figures (metric name -> value) that no workload exercises alone."""
    scn, loop, traj = recorded_state()
    t = float(traj.t[-1])
    x, x_r, x_ri, e_L, e = traj.x[-1], traj.x_r[-1], traj.x_ri[-1], traj.e_L[-1], traj.e[-1]
    W_hat = traj.W_hat[-1]
    c = simulator.command(loop.command_spec, t, loop.n_c)
    sigma = np.concatenate([loop.basis.eval_plant(t, x[: loop.n_p]), x])
    Y = np.outer(sigma, e @ loop.PB)
    spec = scn.controller.projection
    out = {}

    # Projection, pass-through branch: the recorded estimate lies inside the ball.
    if not controllers.phi(W_hat[:, 0], spec) < 0:
        raise RuntimeError("recorded estimate is not inside the projection ball")
    out["controllers.proj_matrix.inside_us"] = 1e6 * per_call(
        lambda: controllers.proj_matrix(W_hat, Y, spec), 2000)

    # Boundary layer: the same direction rescaled to phi in (0, 1), update outward.
    inner = spec.theta_max / np.sqrt(1.0 + spec.eps_theta)
    col = W_hat[:, 0] / np.linalg.norm(W_hat[:, 0])
    Theta = (0.5 * (inner + spec.theta_max) * col)[:, np.newaxis]
    Y_out = Y if float(controllers.phi_grad(Theta[:, 0], spec) @ Y[:, 0]) > 0 else -Y
    if not 0 < controllers.phi(Theta[:, 0], spec) < 1:
        raise RuntimeError("boundary-layer probe estimate is outside the boundary layer")
    out["controllers.proj_matrix.boundary_us"] = 1e6 * per_call(
        lambda: controllers.proj_matrix(Theta, Y_out, spec), 2000)

    def kernels():
        refsys.ideal_ref_deriv(x_ri, c, loop.A_r, loop.aug.B_r)
        refsys.modified_ref_deriv(x_r, c, e, e_L, loop.kappa, loop.A_r, loop.aug.B_r)
        refsys.filter_deriv(e_L, e, loop.eta, loop.A_r)

    out["refsys.kernels.us"] = 1e6 * per_call(kernels, 2000)
    out["matrixcore.solve_lyapunov.us"] = 1e6 * per_call(
        lambda: matrixcore.solve_lyapunov(loop.A_r, scn.controller.lyap.R), 300)

    # 9001 samples: longer than SPECTRUM_MAX_SAMPLES, so the decimation path runs.
    rng = np.random.default_rng(seed)
    ts = 0.01 * np.arange(9001)
    signal = np.sin(3.0 * ts) + 0.1 * rng.standard_normal(ts.size)
    out["analysis.spectrum_fraction_above.ms_9001"] = 1e3 * per_call(
        lambda: analysis.spectrum_fraction_above(ts, signal, simcli.DEFAULT_HF_CUTOFF), 20)
    out["simcli.load_config.ms"] = 1e3 * per_call(
        lambda: simcli.load_config("wingrock_proposed"), 20)
    return out
