"""Acceptance suite: one test per release criterion, one printed verdict each.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Every tolerance here is pinned; a red criterion means the artifact does not
meet its contract.
"""

import dataclasses
import shutil
import subprocess
import sys
import time

import numpy as np

from flmrac import analysis, controllers
from flmrac.matrixcore import solve_lyapunov
from flmrac.plantmodel import aggregate_true_weights, resolve_feature
from flmrac.simcli import load_config, serialize_scenario
from flmrac.simulator import CommandSpec, run, rk4_step

from helpers import (decay_scenario, quiet_wingrock, random_hurwitz, random_spd)
from oracles import PlainMracSimulator

WINGROCK_AR = np.array([[0.0, 1.0, 0.0], [-2.0, -2.0, -1.0], [1.0, 0.0, 0.0]])


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_lyapunov_residuals():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        A = random_hurwitz(rng, n)
        R = random_spd(rng, n)
        P = solve_lyapunov(A, R)
        res = np.linalg.norm(A.T @ P + P @ A + R) / np.linalg.norm(R)
        worst = max(worst, res)
    P_scalar = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
    scalar_err = abs(P_scalar[0, 0] - 1.0)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and scalar_err <= 1e-12 and elapsed < 5.0
    _verdict(1, ok, f"50 random solves worst rel residual {worst:.2e} <= 1e-10; "
                    f"scalar |P-1| = {scalar_err:.1e} <= 1e-12 ({elapsed:.1f}s)")


def test_criterion_02_projection_suite():
    t0 = time.monotonic()
    spec = controllers.ProjectionSpec(theta_max=2.0, eps_theta=0.5)
    rng = np.random.default_rng(202)
    r_inner = spec.theta_max / np.sqrt(spec.eps_theta + 1.0)
    worst = -np.inf
    for _ in range(10_000):
        theta = rng.standard_normal(5) * rng.uniform(0.0, 1.5 * spec.theta_max)
        y = rng.standard_normal(5) * 3.0
        star = rng.standard_normal(5)
        star *= rng.uniform(0.0, r_inner) / max(np.linalg.norm(star), 1e-12)
        worst = max(worst, (theta - star) @ (controllers.proj(theta, y, spec) - y))

    scn, _ = load_config("wingrock_proposed")
    traj = run(scn)  # full noisy run with the projection-equipped update law
    theta_max = scn.controller.projection.theta_max
    col_norms = np.linalg.norm(traj.W_hat, axis=1)  # (N, m)
    max_col = float(np.max(col_norms))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and max_col <= theta_max + 1e-3 and elapsed < 30.0
    _verdict(2, ok, f"1e4-sample inequality max {worst:.2e} <= 1e-12; "
                    f"max column norm {max_col:.3f} <= {theta_max} + 1e-3 "
                    f"({elapsed:.1f}s)")


def test_criterion_03_classical_transient_bound():
    t0 = time.monotonic()
    base, _ = load_config("wingrock_proposed")
    results = []
    for gamma in (50.0, 500.0, 5000.0):
        scn = quiet_wingrock(base, gamma=gamma, kappa=0.0, eta=0.0, t_final=20.0)
        traj = run(scn)
        W = aggregate_true_weights(scn.plant.truth, scn.plant.Lambda,
                                   scn.controller.K, t=0.0)
        bound = analysis.bound_standard_mrac(gamma, scn.controller.lyap.P, -W,
                                             scn.plant.Lambda)
        results.append((gamma, analysis.linf_norm(traj, "e"), bound))
    within = all(obs <= b for _, obs, b in results)
    monotone = all(a[1] > b[1] for a, b in zip(results, results[1:]))
    elapsed = time.monotonic() - t0
    ok = within and monotone and elapsed < 60.0
    detail = "; ".join(f"g={g:.0f}: {obs:.4f} <= {b:.3f}" for g, obs, b in results)
    _verdict(3, ok, f"{detail}; monotone={monotone} ({elapsed:.1f}s)")


def test_criterion_04_modified_transient_guarantees():
    t0 = time.monotonic()
    base, _ = load_config("wingrock_proposed")
    scn = quiet_wingrock(base, t_final=40.0, record_stride=1,
                         command=CommandSpec(kind="step", amplitude=0.3))
    traj = run(scn)
    lam = scn.plant.Lambda
    W = aggregate_true_weights(scn.plant.truth, lam, scn.controller.K, t=0.0)
    lyap = scn.controller.lyap

    bound = analysis.bound_modified_transient(500.0, 100.0, 0.5, lyap, -W, lam, np.zeros(3))
    observed = analysis.linf_norm(traj, "x_err_ideal")
    part_a = observed <= bound

    final_gap = float(np.linalg.norm(traj.x[-1] - traj.x_ri[-1]))
    part_b = final_gap <= 1e-3

    V = analysis.composite_lyapunov(traj, lyap, 500.0, 100.0, 5.0, 0.5, lam, W)
    max_rise = float(np.max(np.diff(V)))
    part_c = max_rise <= 1e-6 * V[0]

    elapsed = time.monotonic() - t0
    ok = part_a and part_b and part_c and elapsed < 60.0
    _verdict(4, ok, f"(a) {observed:.4f} <= {bound:.2f}; "
                    f"(b) final gap {final_gap:.2e} <= 1e-3; "
                    f"(c) max V* rise {max_rise:.2e} <= {1e-6 * V[0]:.2e} "
                    f"({elapsed:.1f}s)")


def test_criterion_05_boundary_layer_decay():
    t0 = time.monotonic()
    rates, floors = {}, {}
    for kappa in (100.0, 200.0, 400.0):
        traj = run(decay_scenario(kappa))
        rate, floor = analysis.decay_fit(traj, t_window=1.0 / kappa)
        rates[kappa], floors[kappa] = rate, floor
    rate_ok = all(abs(rates[k] - k) <= 0.1 * k for k in rates)
    r1 = floors[200.0] / floors[100.0]
    r2 = floors[400.0] / floors[200.0]
    ratio_ok = 0.3 <= r1 <= 0.7 and 0.3 <= r2 <= 0.7
    elapsed = time.monotonic() - t0
    ok = rate_ok and ratio_ok and elapsed < 60.0
    detail = ", ".join(f"k={k:.0f}: rate {rates[k]:.1f}" for k in sorted(rates))
    _verdict(5, ok, f"{detail}; floor ratios {r1:.2f}, {r2:.2f} in [0.3, 0.7] "
                    f"({elapsed:.1f}s)")


def test_criterion_06_classical_reductions():
    t0 = time.monotonic()
    base, _ = load_config("wingrock_proposed")

    filtered_off = quiet_wingrock(base, eta=0.0, t_final=5.0)
    el_max = analysis.linf_norm(run(filtered_off), "e_L")

    scn = quiet_wingrock(base, kappa=0.0, eta=0.0, t_final=10.0, record_stride=1)
    traj = run(scn)
    features = [resolve_feature(name) for name in
                ("bias", "x1", "x2", "abs_x1_x2", "abs_x2_x2", "x1_cubed")]
    oracle = PlainMracSimulator(
        A_p=scn.plant.A_p, B_p=scn.plant.B_p, lam=scn.plant.Lambda,
        W_p=scn.plant.truth.W_p_base, basis_funcs=features,
        E_p=scn.E_p, K=scn.controller.K, P=scn.controller.lyap.P,
        gamma=scn.controller.gamma,
        command_func=lambda t: 0.3 * np.sign(np.sin(2.0 * np.pi * t / 20.0)))
    ref = oracle.simulate(np.zeros(3), np.zeros(3), 10.0, 1e-3)
    dx = float(np.max(np.abs(traj.x - ref["x"])))
    dxr = float(np.max(np.abs(traj.x_r - ref["x_r"])))
    dw = float(np.max(np.abs(traj.W_hat - ref["W_hat"])))
    oracle_gap = max(dx, dxr, dw)
    elapsed = time.monotonic() - t0
    ok = el_max <= 1e-12 and oracle_gap <= 1e-12 and elapsed < 30.0
    _verdict(6, ok, f"eta=0 filter max {el_max:.1e} <= 1e-12; "
                    f"plain-MRAC oracle gap {oracle_gap:.1e} <= 1e-12 "
                    f"({elapsed:.1f}s)")


def test_criterion_07_loop_margins():
    t0 = time.monotonic()
    lead = analysis.margins(100.0, 50.0, 10.0, 1.0)
    high_gain = analysis.margins(1000.0, 50.0, 0.0, 1.0)
    low_kappa = analysis.margins(100.0, 5.0, 0.0, 1.0)
    ordering = (lead.delay_margin > high_gain.delay_margin > low_kappa.delay_margin)
    hf_gap = high_gain.high_freq_gain - lead.high_freq_gain
    lf = [lead.low_freq_gain, high_gain.low_freq_gain, low_kappa.low_freq_gain]
    lf_spread = max(lf) - min(lf)
    elapsed = time.monotonic() - t0
    ok = ordering and hf_gap > 10.0 and lf_spread <= 3.0 and elapsed < 10.0
    _verdict(7, ok, f"delay margins {lead.delay_margin:.3f} > "
                    f"{high_gain.delay_margin:.3f} > {low_kappa.delay_margin:.3f} s; "
                    f"HF gap {hf_gap:.1f} dB > 10; LF spread {lf_spread:.2f} dB <= 3 "
                    f"({elapsed:.2f}s)")


def test_criterion_08_noisy_fourway_comparison(sec8_runs):
    t0 = time.monotonic()
    cutoff = 10.0

    def metrics(name):
        scn, traj = sec8_runs[name]
        err = analysis.signal(traj, "x_err_ideal")
        post = traj.t >= scn.noise.start_time
        return (analysis.hf_content(traj, cutoff),
                float(np.max(np.abs(err[post]))))

    hf_std, _ = metrics("wingrock_standard")
    hf_prop, post_prop = metrics("wingrock_proposed")
    hf_ko, post_ko = metrics("wingrock_kappa_only")
    hf_hg, _ = metrics("wingrock_high_gain")

    part_a = hf_prop < 0.25 * hf_std
    part_b = post_ko >= 1.5 * post_prop
    part_c = hf_hg > hf_prop
    elapsed = time.monotonic() - t0 + sec8_runs["elapsed"]
    ok = part_a and part_b and part_c and elapsed < 300.0
    _verdict(8, ok, f"(a) hf {hf_prop:.2e} < 0.25*{hf_std:.2e}; "
                    f"(b) post-disturbance error ratio "
                    f"{post_ko / post_prop:.2f} >= 1.5; "
                    f"(c) hf high-gain {hf_hg:.2e} > proposed {hf_prop:.2e} "
                    f"({elapsed:.0f}s)")


def test_criterion_09_integrator_order():
    t0 = time.monotonic()
    x0 = np.array([1.0, -1.0, 0.5])
    f = lambda t, y, out: np.matmul(WINGROCK_AR, y, out=out)

    def integrate(h):
        y = x0.copy()
        for k in range(int(round(2.0 / h))):
            y = rk4_step(f, y, (k * h, k * h + 0.5 * h, k * h + h), h)
        return y

    ref = integrate(0.1 / 16.0)
    ratio = (np.linalg.norm(integrate(0.1) - ref)
             / np.linalg.norm(integrate(0.05) - ref))
    elapsed = time.monotonic() - t0
    ok = 12.0 <= ratio <= 20.0 and elapsed < 5.0
    _verdict(9, ok, f"halving h cuts global error by {ratio:.1f}x (in [12, 20]) "
                    f"({elapsed:.2f}s)")


def test_criterion_10_gradient_check():
    t0 = time.monotonic()
    from flmrac.refsys import cost_and_gradient

    rng = np.random.default_rng(1010)
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        e = rng.standard_normal(4)
        e_L = rng.standard_normal(4)
        _, g = cost_and_gradient(e, e_L)
        i = int(rng.integers(0, 4))
        step = np.zeros(4)
        step[i] = eps
        J_p, _ = cost_and_gradient(e + step, e_L)
        J_m, _ = cost_and_gradient(e - step, e_L)
        fd = (J_p - J_m) / (2.0 * eps)
        worst = max(worst, abs(fd + g[i]) / max(1.0, abs(fd)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    _verdict(10, ok, f"central differences match gradient to {worst:.2e} <= 1e-6 "
                     f"({elapsed:.2f}s)")


def test_criterion_11_cli_byte_determinism(tmp_path):
    t0 = time.monotonic()
    scn, _ = load_config("wingrock_proposed")
    scn = dataclasses.replace(
        scn, name="determinism", t_final=5.0,
        noise=dataclasses.replace(scn.noise, start_time=0.5))
    cfg = tmp_path / "determinism.cfg"
    cfg.write_text(serialize_scenario(scn))

    exe = shutil.which("flmrac")
    base = [exe] if exe else [sys.executable, "-m", "flmrac.simcli"]
    for sub in ("a", "b"):
        proc = subprocess.run(
            base + ["run", "--config", str(cfg), "--out", str(tmp_path / sub)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    b1 = (tmp_path / "a" / "determinism.csv").read_bytes()
    b2 = (tmp_path / "b" / "determinism.csv").read_bytes()
    elapsed = time.monotonic() - t0
    ok = b1 == b2 and len(b1) > 0 and elapsed < 120.0
    _verdict(11, ok, f"two CLI runs produced byte-identical CSV "
                     f"({len(b1)} bytes, {elapsed:.1f}s)")
