import dataclasses

import numpy as np
import pytest

from flmrac import controllers, plantmodel, refsys
from flmrac import simulator as sim
from flmrac.matrixcore import LyapunovPair
from flmrac.plantmodel import BasisSpec, PlantModel, UncertaintyTruth, augment
from flmrac.controllers import ControllerConfig, ProjectionSpec
from flmrac.simcli import load_config

from helpers import quiet_wingrock, scalar_scenario

WINGROCK_AR = np.array([[0.0, 1.0, 0.0], [-2.0, -2.0, -1.0], [1.0, 0.0, 0.0]])


class TestCommand:
    def test_zero(self):
        spec = sim.CommandSpec(kind="zero")
        assert all(sim.command(spec, t)[0] == 0.0 for t in (0.0, 1.0, 99.0))

    def test_square_wave_signs(self):
        spec = sim.CommandSpec(kind="square_wave", amplitude=1.0, period=2.0)
        assert sim.command(spec, 0.5)[0] == pytest.approx(1.0)
        assert sim.command(spec, 1.5)[0] == pytest.approx(-1.0)

    def test_step(self):
        spec = sim.CommandSpec(kind="step", amplitude=0.3)
        assert sim.command(spec, 10.0)[0] == pytest.approx(0.3)

    def test_custom_hold(self):
        spec = sim.CommandSpec(kind="custom", times=(0.0, 1.0), values=(0.5, -0.5))
        assert sim.command(spec, 0.2)[0] == 0.5
        assert sim.command(spec, 1.2)[0] == -0.5

    def test_empty_for_stabilization(self):
        assert sim.command(sim.CommandSpec(kind="zero"), 0.0, n_c=0).shape == (0,)

    def test_square_wave_needs_period(self):
        with pytest.raises(ValueError):
            sim.CommandSpec(kind="square_wave", amplitude=1.0, period=0.0)


class TestRk4Step:
    def test_zero_field_fixes_state(self):
        y = np.array([1.0, -2.0])
        out = sim.rk4_step(lambda t, yy: np.zeros(2), y, 0.0, 0.1)
        assert np.array_equal(out, y)

    def test_scalar_exponential_one_step(self):
        out = sim.rk4_step(lambda t, yy: -yy, np.array([1.0]), 0.0, 0.1)
        assert out[0] == pytest.approx(0.9048375, abs=1e-9)
        assert abs(out[0] - np.exp(-0.1)) < 1e-7

    def test_fourth_order_on_linear_system(self):
        x0 = np.array([1.0, -1.0, 0.5])
        f = lambda t, y: WINGROCK_AR @ y

        def integrate(h):
            y = x0.copy()
            for k in range(int(round(2.0 / h))):
                y = sim.rk4_step(f, y, k * h, h)
            return y

        ref = integrate(0.1 / 16.0)
        err_h = np.linalg.norm(integrate(0.1) - ref)
        err_h2 = np.linalg.norm(integrate(0.05) - ref)
        assert 12.0 <= err_h / err_h2 <= 20.0

    def test_nonfinite_derivative_raises(self):
        with pytest.raises(sim.DivergenceError):
            sim.rk4_step(lambda t, y: np.array([np.nan]), np.array([1.0]), 0.0, 0.1)

    def test_nonfinite_error_carries_state(self):
        with pytest.raises(sim.DivergenceError) as err:
            sim.rk4_step(lambda t, y: np.array([0.0, np.inf]), np.array([1.0, 2.0]), 0.0, 0.1)
        assert err.value.state[0] == 1.0 and np.isinf(err.value.state[1])


def _no_uncertainty_scenario(**kw):
    truth = UncertaintyTruth(W_p_base=np.zeros((1, 1)))
    plant = PlantModel(A_p=[[-1.0]], B_p=[[1.0]], Lambda=[1.0], truth=truth,
                       basis=BasisSpec(("x1",)))
    E_p = np.array([[1.0]])
    K = np.array([[2.0, 2.0]])
    aug = augment(plant, E_p)
    lyap = LyapunovPair.for_closed_loop(aug.A - aug.B @ K, np.eye(2))
    defaults = dict(
        plant=plant, E_p=E_p,
        controller=ControllerConfig(K=K, gamma=100.0, kappa=0.0, eta=0.0, lyap=lyap),
        command=sim.CommandSpec(kind="zero"), noise=sim.NoiseSpec(),
        t_final=1.0, h=1e-3, record_stride=1, name="clean")
    defaults.update(kw)
    return sim.ScenarioConfig(**defaults)


class TestAssemble:
    def test_equilibrium_has_zero_derivative(self):
        scn = _no_uncertainty_scenario()
        system = sim.assemble(scn)
        y0 = system.initial_state()
        dy = system.deriv(0.0, y0, np.zeros(system.n))
        assert np.array_equal(dy, np.zeros_like(y0))

    def test_wingrock_state_dimension(self):
        scn, _ = load_config("wingrock_proposed")
        assert sim.assemble(scn).state_dim == 21

    def test_rejects_wrong_lyapunov_pair(self):
        scn = _no_uncertainty_scenario()
        bad = dataclasses.replace(
            scn.controller,
            lyap=LyapunovPair(R=np.eye(2), P=np.eye(2)))
        with pytest.raises(ValueError, match="Lyapunov"):
            sim.assemble(dataclasses.replace(scn, controller=bad))

    def test_rejects_non_hurwitz_gain(self):
        scn = _no_uncertainty_scenario()
        bad = dataclasses.replace(scn.controller, K=np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError, match="Hurwitz"):
            sim.assemble(dataclasses.replace(scn, controller=bad))


class TestRun:
    def test_no_uncertainty_tracks_ideal_reference(self):
        scn = _no_uncertainty_scenario(
            command=sim.CommandSpec(kind="step", amplitude=0.5), t_final=5.0)
        traj = sim.run(scn)
        assert np.max(np.abs(traj.x - traj.x_ri)) < 1e-9

    def test_zero_horizon_single_sample(self):
        traj = sim.run(_no_uncertainty_scenario(t_final=0.0))
        assert len(traj) == 1 and traj.t[0] == 0.0

    def test_final_time_always_recorded(self):
        traj = sim.run(_no_uncertainty_scenario(t_final=1.0, record_stride=7))
        assert traj.t[-1] == pytest.approx(1.0)

    def test_trajectory_identities(self):
        scn = quiet_wingrock(load_config("wingrock_proposed")[0], t_final=2.0)
        traj = sim.run(scn)
        assert np.max(np.abs(traj.e - (traj.x - traj.x_r))) <= 1e-12
        assert np.max(np.abs(traj.e_H - (traj.e - traj.e_L))) <= 1e-12

    def test_reference_decoupling_at_kappa_zero(self):
        scn = quiet_wingrock(load_config("wingrock_proposed")[0],
                             kappa=0.0, eta=0.0, t_final=2.0)
        traj = sim.run(scn)
        assert np.array_equal(traj.x_r, traj.x_ri)

    def test_seeded_determinism(self):
        scn, _ = load_config("wingrock_proposed")
        scn = dataclasses.replace(
            scn, t_final=1.0,
            noise=dataclasses.replace(scn.noise, start_time=0.2))
        a = sim.run(scn)
        b = sim.run(scn)
        for field in ("t", "x", "x_r", "x_ri", "e", "e_L", "e_H", "u", "W_hat", "c"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_different_seeds_differ(self):
        scn, _ = load_config("wingrock_proposed")
        scn = dataclasses.replace(
            scn, t_final=1.0,
            noise=dataclasses.replace(scn.noise, start_time=0.2))
        other = dataclasses.replace(
            scn, noise=dataclasses.replace(scn.noise, seed=1))
        assert not np.array_equal(sim.run(scn).x, sim.run(other).x)

    def test_noise_leaves_recorded_identities_exact(self):
        scn, _ = load_config("wingrock_proposed")
        scn = dataclasses.replace(
            scn, t_final=1.0,
            noise=dataclasses.replace(scn.noise, start_time=0.0))
        traj = sim.run(scn)
        assert np.max(np.abs(traj.e - (traj.x - traj.x_r))) <= 1e-12

    def test_divergence_detected(self):
        # kappa h = 5 puts the fast mode far outside the RK4 stability region
        scn = scalar_scenario(kappa=100.0, h=0.05, t_final=10.0)
        with pytest.raises(sim.DivergenceError):
            sim.run(scn)

    def test_stiff_blowup_names_block(self):
        # The last step size the CLI retries for kappa = 5e4 still blows up.
        scn, _ = load_config("wingrock_proposed")
        scn = dataclasses.replace(
            scn, h=1.25e-4, t_final=5.0,
            controller=dataclasses.replace(scn.controller, kappa=5e4),
            noise=dataclasses.replace(scn.noise, enabled=False))
        with pytest.raises(sim.DivergenceError,
                           match=r"\(signal: (x|x_r|x_ri|e_L|W_hat)\)"):
            sim.run(scn)


class TestDivergedBlock:
    def test_nonfinite_block_named(self):
        system = sim.assemble(_no_uncertainty_scenario())
        y = np.zeros(system.state_dim)
        y[system.sl_xr] = 1e12
        y[system.sl_W] = np.nan
        assert system.diverged_block(y) == "W_hat"

    def test_largest_entry_names_block(self):
        system = sim.assemble(_no_uncertainty_scenario())
        y = np.ones(system.state_dim)
        y[system.sl_eL] = -2e9
        assert system.diverged_block(y) == "e_L"


def _reference_deriv(system, t, y, noise):
    """The closed loop composed from the module-level laws."""
    cfg = system.scenario.controller
    aug = system.aug
    x, x_r, x_ri, e_L = (y[sl] for sl in system.blocks[:4])
    W_hat = y[system.sl_W].reshape(system.s + system.n, system.m)
    x_m = x + noise
    e_m = x_m - x_r
    sigma_m = plantmodel.eval_basis(system.basis, t, x_m[: system.n_p], x_m)
    u = controllers.control(x_m, sigma_m, W_hat, cfg.K)
    delta = plantmodel.eval_uncertainty(system.truth, system.basis, t, x[: system.n_p])
    c = sim.command(system.command_spec, t, system.n_c)
    return [
        aug.A @ x + aug.B @ (system.Lam * u + delta) + aug.B_r @ c,
        refsys.modified_ref_deriv(x_r, c, e_m, e_L, cfg.kappa, system.A_r, aug.B_r),
        refsys.ideal_ref_deriv(x_ri, c, system.A_r, aug.B_r),
        refsys.filter_deriv(e_L, e_m, cfg.eta, system.A_r),
        controllers.update_deriv(W_hat, sigma_m, e_m, cfg.lyap, aug.B, cfg.gamma,
                                 cfg.projection).ravel(),
    ]


def _random_state(system, rng, radius):
    """State near the reference, with every weight column of norm `radius`."""
    n = system.n
    x = 0.5 * rng.standard_normal(n)
    W = rng.standard_normal((system.s + n, system.m))
    W *= radius / np.linalg.norm(W, axis=0)
    return np.concatenate([x, x + 0.05 * rng.standard_normal(n),
                           x + 0.05 * rng.standard_normal(n),
                           0.02 * rng.standard_normal(n), W.ravel()])


def _projected_scalar():
    scn = scalar_scenario(kappa=100.0, eta=2.0)
    ctrl = dataclasses.replace(scn.controller,
                               projection=ProjectionSpec(theta_max=3.0, eps_theta=0.2))
    return dataclasses.replace(scn, controller=ctrl)


class TestFusedVectorField:
    """deriv against the composition of the module-level laws, block by block."""

    @staticmethod
    def _check(scn, radius, noisy, seed=3, samples=40):
        system = sim.assemble(scn)
        rng = np.random.default_rng(seed)
        projected = 0
        for _ in range(samples):
            t = float(rng.uniform(0.0, 90.0))
            y = _random_state(system, rng, radius)
            noise = 0.01 * rng.standard_normal(system.n) if noisy else np.zeros(system.n)
            got = system.deriv(t, y, noise if noisy else None)
            ref = _reference_deriv(system, t, y, noise)
            for name, sl, want in zip(system.block_names, system.blocks, ref):
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got[sl] - want)) <= 1e-12 * scale, (name, t)
            if system.projection is not None:
                raw = got[system.sl_W] != system.gamma * np.outer(
                    system.measured_basis(t, y[system.sl_x] + noise),
                    (y[system.sl_x] + noise - y[system.sl_xr]) @ system.PB).ravel()
                projected += bool(raw.any())
        return projected

    @pytest.mark.parametrize("noisy", [False, True])
    def test_projected_inside_ball(self, wingrock_proposed, noisy):
        spec = wingrock_proposed.controller.projection
        inner = spec.theta_max / np.sqrt(1.0 + spec.eps_theta)
        assert self._check(wingrock_proposed, 0.5 * inner, noisy) == 0

    @pytest.mark.parametrize("noisy", [False, True])
    def test_projected_boundary_layer(self, wingrock_proposed, noisy):
        spec = wingrock_proposed.controller.projection
        inner = spec.theta_max / np.sqrt(1.0 + spec.eps_theta)
        assert self._check(wingrock_proposed, 0.5 * (inner + spec.theta_max), noisy) > 0

    @pytest.mark.parametrize("noisy", [False, True])
    def test_projection_off(self, wingrock_proposed, noisy):
        scn = dataclasses.replace(
            wingrock_proposed,
            controller=dataclasses.replace(wingrock_proposed.controller, projection=None))
        self._check(scn, 10.0, noisy)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_stabilization_without_integrator(self, noisy):
        scn = _projected_scalar()
        assert sim.assemble(scn).n_c == 0
        assert self._check(scn, 0.5 * (3.0 / np.sqrt(1.2) + 3.0), noisy) > 0


class TestScenarioValidation:
    def test_bad_step_size(self):
        with pytest.raises(ValueError):
            _no_uncertainty_scenario(h=0.0)

    def test_horizon_shorter_than_step(self):
        with pytest.raises(ValueError):
            _no_uncertainty_scenario(t_final=1e-5, h=1e-3)
