"""Shared scenario builders for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np

from flmrac.controllers import ControllerConfig
from flmrac.matrixcore import LyapunovPair
from flmrac.plantmodel import (FEATURE_EXPRESSIONS, BasisSpec, PlantModel, UncertaintyTruth,
                               augment)
from flmrac.simcli import read_csv_columns, write_trajectory_csv
from flmrac.simulator import (ClosedLoopSystem, CommandSpec, NoiseSpec, ScenarioConfig,
                              Trajectory)

from oracles import PlainMracSimulator, resolve_feature, truth_at

WINGROCK_ALPHAS = (0.25, 0.5, 1.0, -5.0, 5.0, 10.0)


def constant_wingrock_truth() -> UncertaintyTruth:
    """Wing-rock truth with the exogenous sinusoid disabled (constant weights)."""
    w = np.array([0.0, *WINGROCK_ALPHAS[1:]]).reshape(6, 1)
    return UncertaintyTruth(W_p_base=w)


def quiet_wingrock(scn: ScenarioConfig, gamma=None, kappa=None, eta=None,
                   t_final=40.0, command=None, record_stride=None) -> ScenarioConfig:
    """Noise-free, constant-truth, projection-free variant of a bundled scenario."""
    plant = dataclasses.replace(scn.plant, truth=constant_wingrock_truth())
    ctrl = scn.controller
    ctrl = dataclasses.replace(
        ctrl,
        gamma=ctrl.gamma if gamma is None else gamma,
        kappa=ctrl.kappa if kappa is None else kappa,
        eta=ctrl.eta if eta is None else eta,
        projection=None,
    )
    return dataclasses.replace(
        scn,
        plant=plant,
        controller=ctrl,
        noise=dataclasses.replace(scn.noise, std=()),
        command=scn.command if command is None else command,
        t_final=t_final,
        record_stride=scn.record_stride if record_stride is None else record_stride,
    )


def scalar_plant(w_truth: float = 1.5) -> PlantModel:
    """First-order stabilization plant with a linear-in-state uncertainty."""
    truth = UncertaintyTruth(W_p_base=np.array([[w_truth]]))
    return PlantModel(A_p=[[-1.0]], B_p=[[1.0]], Lambda=[1.0], truth=truth,
                      basis=BasisSpec(("x1",)))


def scalar_scenario(gamma=50.0, kappa=100.0, eta=0.0, h=1e-4, t_final=2.0,
                    x0=0.5, x_r0=None, w_truth=1.5, R=None) -> ScenarioConfig:
    plant = scalar_plant(w_truth)
    E_p = np.zeros((0, 1))
    K = np.array([[1.0]])
    aug = augment(plant, E_p)
    lyap = LyapunovPair.for_closed_loop(aug.A - aug.B @ K,
                                        np.eye(1) if R is None else R)
    ctrl = ControllerConfig(K=K, gamma=gamma, kappa=kappa, eta=eta, lyap=lyap)
    return ScenarioConfig(
        plant=plant, E_p=E_p, controller=ctrl,
        command=CommandSpec(kind="zero"), noise=NoiseSpec(),
        t_final=t_final, h=h, record_stride=1,
        x0=np.array([float(x0)]),
        x_r0=None if x_r0 is None else np.array([float(x_r0)]),
        name="scalar",
    )


def scalar_loop_scenario(gamma: float, kappa: float, eta: float, alpha: float,
                         a: float = 0.3, w: float = 0.7) -> ScenarioConfig:
    """The scalar design case of the loop transfer function.

    A_p = a, a bias basis with constant truth w, K = a + alpha and R = 2 alpha^2,
    so A - B K = -alpha and P = P B = alpha; zero command, no noise, no
    projection.  x = x_r = x_ri = e_L = 0 with W_hat = [w; 0] is an equilibrium.
    """
    truth = UncertaintyTruth(W_p_base=np.array([[w]]))
    plant = PlantModel(A_p=[[a]], B_p=[[1.0]], Lambda=[1.0], truth=truth,
                       basis=BasisSpec(("bias",)))
    E_p = np.zeros((0, 1))
    K = np.array([[a + alpha]])
    lyap = LyapunovPair.for_closed_loop(np.array([[-alpha]]), np.array([[2.0 * alpha**2]]))
    ctrl = ControllerConfig(K=K, gamma=gamma, kappa=kappa, eta=eta, lyap=lyap)
    return ScenarioConfig(
        plant=plant, E_p=E_p, controller=ctrl,
        command=CommandSpec(kind="zero"), noise=NoiseSpec(),
        t_final=1.0, h=1e-3, name="scalar_loop",
    )


def oracle_for(scn: ScenarioConfig) -> PlainMracSimulator:
    """The from-scratch oracle fed the scenario's plant data, gains and command."""
    plant, ctrl = scn.plant, scn.controller
    spec = ctrl.projection
    return PlainMracSimulator(
        A_p=plant.A_p, B_p=plant.B_p, lam=plant.Lambda,
        W_p=lambda t: truth_at(plant.truth, t),
        basis_funcs=[resolve_feature(name, FEATURE_EXPRESSIONS)
                     for name in plant.basis.names],
        E_p=scn.E_p, K=ctrl.K, P=ctrl.lyap.P, gamma=ctrl.gamma,
        command_func=scn.command.value, kappa=ctrl.kappa, eta=ctrl.eta,
        projection=None if spec is None else (spec.theta_max, spec.eps_theta))


def input_row(system: ClosedLoopSystem, t: float, noise=None) -> tuple:
    """deriv's input row at time t, (W_p(t), c(t), noise), noise None for none."""
    return system.truth.W_p(t), system.command_spec.value(t), noise


def decay_scenario(kappa: float, eta: float = 2.0, h: float = 5e-5,
                   t_final: float = 1.5) -> ScenarioConfig:
    """Linear tracking plant used for the boundary-layer decay checks.

    x_r0 != x0 seeds the fast transient; the unit step command then drives a
    slow closed-loop transient whose uncertainty mismatch sustains the
    O(1/kappa) high-frequency residual well after the boundary layer.
    """
    truth = UncertaintyTruth(W_p_base=np.array([[2.0]]))
    plant = PlantModel(A_p=[[-1.0]], B_p=[[1.0]], Lambda=[1.0], truth=truth,
                       basis=BasisSpec(("x1",)))
    E_p = np.array([[1.0]])
    K = np.array([[2.0, 2.0]])
    aug = augment(plant, E_p)
    lyap = LyapunovPair.for_closed_loop(aug.A - aug.B @ K, np.eye(2))
    ctrl = ControllerConfig(K=K, gamma=10.0, kappa=kappa, eta=eta, lyap=lyap)
    return ScenarioConfig(
        plant=plant, E_p=E_p, controller=ctrl,
        command=CommandSpec(kind="step", amplitude=1.0), noise=NoiseSpec(),
        t_final=t_final, h=h, record_stride=1,
        x0=np.array([0.0, 0.0]), x_r0=np.array([0.25, 0.0]),
        name=f"decay_k{kappa:g}",
    )


def assert_csv_errors_exact(traj: Trajectory, path) -> None:
    """The e_i and eH_i columns of traj's CSV at path equal x_i - xr_i and
    e_i - eL_i of the same file bit for bit."""
    write_trajectory_csv(traj, path)
    cols = read_csv_columns(path)
    for i in range(1, traj.x.shape[1] + 1):
        e = cols[f"x_{i}"] - cols[f"xr_{i}"]
        assert cols[f"e_{i}"].tobytes() == e.tobytes(), f"e_{i}"
        assert cols[f"eH_{i}"].tobytes() == (e - cols[f"eL_{i}"]).tobytes(), f"eH_{i}"


def random_hurwitz(rng: np.random.Generator, n: int, margin: float = 0.5) -> np.ndarray:
    A = rng.standard_normal((n, n))
    shift = float(np.max(np.linalg.eigvals(A).real)) + margin
    return A - shift * np.eye(n)


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    M = rng.standard_normal((n, n))
    return M @ M.T + 0.1 * np.eye(n)
