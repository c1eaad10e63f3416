import copy
import dataclasses

import numpy as np
import pytest

from flmrac import simulator as sim
from flmrac.matrixcore import LyapunovPair
from flmrac.plantmodel import BasisSpec, Modulation, PlantModel, UncertaintyTruth, augment
from flmrac.controllers import ControllerConfig, ProjectionSpec
from flmrac.simcli import load_config, write_trajectory_csv

from helpers import (assert_csv_errors_exact, input_row, oracle_for, quiet_wingrock,
                     scalar_scenario)

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
        spec = sim.CommandSpec(kind="custom", times=(0.5, 1.0, 2.5), values=(0.5, -0.5, 2.0))
        # Each sample holds from its own time on; before the first, the first value holds.
        want = {-1.0: 0.5, 0.0: 0.5, 0.5: 0.5, 0.7: 0.5, 1.0: -0.5, 1.2: -0.5,
                2.5: 2.0, 99.0: 2.0}
        assert {t: spec.value(t) for t in want} == want
        assert sim.command(spec, 1.2)[0] == -0.5

    @pytest.mark.parametrize("times", [(2.0, 0.0, 1.0), (0.0, 1.0, 1.0)])
    def test_custom_times_must_increase(self, times):
        with pytest.raises(ValueError, match="times must increase"):
            sim.CommandSpec(kind="custom", times=times, values=(5.0, 7.0, 9.0))

    def test_empty_for_stabilization(self):
        assert sim.command(sim.CommandSpec(kind="zero"), 0.0, n_c=0).shape == (0,)

    def test_square_wave_needs_period(self):
        with pytest.raises(ValueError):
            sim.CommandSpec(kind="square_wave", amplitude=1.0, period=0.0)


class TestRk4Step:
    def test_zero_field_fixes_state(self):
        y = np.array([1.0, -2.0])
        out = sim.rk4_step(lambda t, yy, out: out.fill(0.0), y, (0.0, 0.05, 0.1), 0.1)
        assert np.array_equal(out, y)

    def test_scalar_exponential_one_step(self):
        out = sim.rk4_step(lambda t, yy, out: np.negative(yy, out=out), np.array([1.0]),
                           (0.0, 0.05, 0.1), 0.1)
        assert out[0] == pytest.approx(0.9048375, abs=1e-9)
        assert abs(out[0] - np.exp(-0.1)) < 1e-7

    def test_fourth_order_on_linear_system(self):
        x0 = np.array([1.0, -1.0, 0.5])
        f = lambda t, y, out: np.matmul(WINGROCK_AR, y, out=out)

        def integrate(h):
            y = x0.copy()
            for k in range(int(round(2.0 / h))):
                y = sim.rk4_step(f, y, (k * h, k * h + 0.5 * h, k * h + h), h)
            return y

        ref = integrate(0.1 / 16.0)
        err_h = np.linalg.norm(integrate(0.1) - ref)
        err_h2 = np.linalg.norm(integrate(0.05) - ref)
        assert 12.0 <= err_h / err_h2 <= 20.0

    def test_stages_read_the_start_middle_and_end_rows(self):
        seen = []
        sim.rk4_step(lambda row, yy, out: seen.append(row), np.zeros(1),
                     ("start", "middle", "end"), 0.1)
        assert seen == ["start", "middle", "middle", "end"]

    @pytest.mark.parametrize("noise", [None, np.array([0.01, -0.02, 0.005])])
    def test_step_owes_nothing_to_the_stage_buffer(self, wingrock_proposed, noise):
        # The caller's buffer may hold anything, here NaN and both infinities.
        system = sim.assemble(wingrock_proposed)
        y = np.linspace(-0.5, 0.5, system.state_dim)
        rows, = system.stage_inputs(np.array([50.0]), 1e-3, [noise])
        fresh = sim.rk4_step(system.deriv, y, rows, 1e-3)
        dirty = np.full((6, system.state_dim), np.nan)
        dirty[1::2], dirty[2::3] = np.inf, -np.inf
        got = sim.rk4_step(system.deriv, y, rows, 1e-3, stages=dirty)
        assert got.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("field", [[np.nan, 0.0], [0.0, np.inf]], ids=["nan", "inf"])
    def test_nonfinite_field_passes_through(self, field):
        # The step is arithmetic only; run, not rk4_step, guards the state.
        y, finite = np.array([1.0, 2.0]), np.isfinite(field)
        out = sim.rk4_step(lambda t, yy, out: np.copyto(out, field), y, (0.0, 0.05, 0.1), 0.1)
        assert np.array_equal(np.isfinite(out), finite)
        assert np.array_equal(out[finite], y[finite])


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


def _lyap_with_nan(key):
    """The clean scenario's Lyapunov pair with a NaN entry in its R or P."""
    lyap = _no_uncertainty_scenario().controller.lyap
    mat = getattr(lyap, key).copy()
    mat[0, 0] = np.nan
    return dataclasses.replace(lyap, **{key: mat})


def _nan_truth_plant():
    truth = UncertaintyTruth(W_p_base=np.full((1, 1), np.nan))
    return PlantModel(A_p=[[-1.0]], B_p=[[1.0]], Lambda=[1.0], truth=truth,
                      basis=BasisSpec(("x1",)))


class TestAssemble:
    def test_equilibrium_has_zero_derivative(self):
        scn = _no_uncertainty_scenario()
        system = sim.assemble(scn)
        y0 = system.initial_state()
        dy = system.deriv(input_row(system, 0.0, np.zeros(system.n)), y0)
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

    def test_trajectory_identities(self, tmp_path):
        scn = quiet_wingrock(load_config("wingrock_proposed")[0], t_final=2.0)
        assert_csv_errors_exact(sim.run(scn), tmp_path / "quiet.csv")

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

    def test_noise_leaves_recorded_identities_exact(self, tmp_path):
        scn, _ = load_config("wingrock_proposed")
        scn = dataclasses.replace(
            scn, t_final=1.0,
            noise=dataclasses.replace(scn.noise, start_time=0.0))
        assert_csv_errors_exact(sim.run(scn), tmp_path / "noisy.csv")

    @pytest.mark.parametrize("n_c", [0, 1])
    @pytest.mark.parametrize("command", [
        sim.CommandSpec(kind="zero"),
        sim.CommandSpec(kind="step", amplitude=0.5, offset=-0.1),
        sim.CommandSpec(kind="square_wave", amplitude=-0.3, period=0.06, offset=0.05),
        sim.CommandSpec(kind="custom", times=(0.0205, 0.0985, 0.21), values=(0.2, -0.4, 0.7)),
    ], ids=lambda command: command.kind)
    def test_records_time_and_command_on_the_step_grid(self, command, n_c):
        # 250 steps at stride 7: the sample at t_final, step 250, is off the stride.  The
        # square wave and the custom command switch at the sample t = 0.21; the custom one
        # also inside the sampled step from 0.098 to 0.099, whose stages 1 and 4 differ.
        scn = _no_uncertainty_scenario() if n_c else scalar_scenario(h=1e-3)
        scn = dataclasses.replace(scn, command=command, t_final=0.25, record_stride=7)
        traj = sim.run(scn)
        steps = list(range(0, scn.steps, 7)) + [scn.steps]
        assert scn.steps % 7 and traj.c.shape == (len(steps), n_c)
        assert traj.t.tobytes() == np.array([k * scn.h for k in steps]).tobytes()
        want = [[command.value(t)] * n_c for t in traj.t.tolist()]
        assert traj.c.tobytes() == np.array(want, dtype=float).reshape(len(steps), n_c).tobytes()

    def test_divergence_detected(self):
        # kappa h = 5 puts the fast mode far outside the RK4 stability region
        scn = scalar_scenario(kappa=100.0, h=0.05, t_final=10.0)
        with pytest.raises(sim.DivergenceError,
                           match=r"^simulation diverged at t=0\.3 \(signal: W_hat\); "):
            sim.run(scn)

    def test_nonfinite_derivative_mid_run_names_block(self, monkeypatch):
        # NaN enters W_hat' at the last stage of step 10, from t = 0.010 to 0.011
        # (call 43 at h = 1e-3, four calls a step), so only W_hat is non-finite at its end.
        deriv, calls = sim.ClosedLoopSystem.deriv, []

        def nan_weights_late(self, row, y, out=None):
            out = deriv(self, row, y, out)
            calls.append(None)
            if len(calls) > 43:
                out[self.sl_W] = np.nan
            return out

        monkeypatch.setattr(sim.ClosedLoopSystem, "deriv", nan_weights_late)
        with pytest.raises(sim.DivergenceError) as err:
            sim.run(_no_uncertainty_scenario())
        assert str(err.value) == ("simulation diverged at t=0.011 (signal: W_hat); "
                                  "consider a smaller step size h in scenario 'clean'")

    def test_finite_state_first_above_limit_raises(self, monkeypatch):
        # x grows by 0.4 DIVERGENCE_LIMIT per step: 1.2 times the limit after the third.
        def ramp(self, row, y, out=None):
            out.fill(0.0)
            out[0] = 0.4 * sim.DIVERGENCE_LIMIT / self.scenario.h
            return out

        monkeypatch.setattr(sim.ClosedLoopSystem, "deriv", ramp)
        with pytest.raises(sim.DivergenceError) as err:
            sim.run(_no_uncertainty_scenario())
        assert str(err.value).startswith("simulation diverged at t=0.003 (signal: x); ")

    def test_entries_within_limit_pass_though_their_sum_of_squares_is_above(self, monkeypatch):
        # Every entry ends at 0.9 DIVERGENCE_LIMIT: the sum of squares of the 11
        # entries passes DIVERGENCE_LIMIT**2 = 1e18, no single entry passes the limit.
        scn = _no_uncertainty_scenario(t_final=0.01)

        def ramp(self, row, y, out=None):
            out.fill(0.9 * sim.DIVERGENCE_LIMIT / scn.t_final)
            return out

        monkeypatch.setattr(sim.ClosedLoopSystem, "deriv", ramp)
        traj = sim.run(scn)
        last = np.concatenate([traj.x[-1], traj.x_r[-1], traj.x_ri[-1], traj.e_L[-1],
                               traj.W_hat[-1].ravel()])
        assert last.size == 11 and last.dot(last) > 1e18
        assert np.all(np.abs(last) <= sim.DIVERGENCE_LIMIT)

    def test_stiff_blowup_names_block(self):
        # kappa h = 6.25 lies outside RK4's stability region.
        scn, _ = load_config("wingrock_proposed")
        scn = dataclasses.replace(
            scn, name="stiff", h=1.25e-4, t_final=5.0,
            controller=dataclasses.replace(scn.controller, kappa=5e4),
            noise=dataclasses.replace(scn.noise, std=()))
        with pytest.raises(sim.DivergenceError) as err:
            sim.run(scn)
        assert str(err.value) == ("simulation diverged at t=0.001625 (signal: W_hat); "
                                  "consider a smaller step size h in scenario 'stiff'")


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
    """deriv against the from-scratch oracle's rhs, block by block."""

    @staticmethod
    def _check(scn, radius, noisy, seed=3, samples=40):
        system = sim.assemble(scn)
        oracle = oracle_for(scn)
        unprojected = copy.copy(oracle)
        unprojected.projection = None
        rng = np.random.default_rng(seed)
        projected = 0
        for _ in range(samples):
            t = float(rng.uniform(0.0, 90.0))
            y = _random_state(system, rng, radius)
            noise = 0.01 * rng.standard_normal(system.n) if noisy else None
            got = system.deriv(input_row(system, t, noise), y)
            want = oracle.rhs(t, y, noise)
            for name, sl in zip(system.block_names, system.blocks):
                scale = max(1.0, float(np.max(np.abs(want[sl]))))
                assert np.max(np.abs(got[sl] - want[sl])) <= 1e-12 * scale, (name, t)
            projected += bool((want != unprojected.rhs(t, y, noise)).any())
        return projected

    def test_laws_read_the_measured_state_only_through_e_m(self, wingrock_proposed):
        # [z'; r] = L [z; delta; W_hat' sigma_m; e_m; c]: no row but the plant's
        # reads x, and the update law's rows read e_m alone, with the gain gamma (P B)'.
        system = sim.assemble(wingrock_proposed)
        n, m = system.n, system.m
        e_m = np.arange(4 * n + 2 * m, 5 * n + 2 * m)
        r_rows = system._L[4 * n:]
        assert np.array_equal(r_rows[:, e_m], system.gamma * system.PB.T)
        assert not np.delete(r_rows, e_m, axis=1).any()
        assert not system._L[n:, system.sl_x].any()

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


class TestStepContract:
    """What the benchmark's traced pass counts, through the same module and
    class attributes: one rk4_step per step and four deriv calls per step."""

    def test_four_derivs_per_step_and_none_per_sample(self, wingrock_proposed, monkeypatch):
        calls = {"rk4_step": 0, "deriv": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sim, "rk4_step", counted("rk4_step", sim.rk4_step))
        monkeypatch.setattr(sim.ClosedLoopSystem, "deriv",
                            counted("deriv", sim.ClosedLoopSystem.deriv))
        # Every step recorded, noisy from the middle: quiet and noisy samples.
        scn = dataclasses.replace(
            wingrock_proposed, t_final=0.05, record_stride=1,
            noise=dataclasses.replace(wingrock_proposed.noise, start_time=0.025))
        assert len(sim.run(scn)) == scn.steps + 1
        assert calls == {"rk4_step": scn.steps, "deriv": 4 * scn.steps}


def _mid_chunk_noisy(wingrock_proposed):
    """wingrock_proposed over 300 steps, each recorded, whose sin modulation
    (from step 100) and noise (from step 152) start inside chunks of 7 steps."""
    truth = dataclasses.replace(wingrock_proposed.plant.truth,
                                modulations=(Modulation(row=0, col=0, kind="sin", start=0.1),))
    return dataclasses.replace(
        wingrock_proposed, t_final=0.3, record_stride=1,
        plant=dataclasses.replace(wingrock_proposed.plant, truth=truth),
        noise=dataclasses.replace(wingrock_proposed.noise, start_time=0.152))


class TestInputTables:
    """run fills its input tables CHUNK_STEPS steps at a time; the chunk size
    changes nothing that a run computes."""

    def test_chunk_size_leaves_the_csv_bytes(self, wingrock_proposed, monkeypatch, tmp_path):
        scn = _mid_chunk_noisy(wingrock_proposed)
        write_trajectory_csv(sim.run(scn), tmp_path / "default.csv")
        monkeypatch.setattr(sim, "CHUNK_STEPS", 7)
        write_trajectory_csv(sim.run(scn), tmp_path / "seven.csv")
        assert (tmp_path / "seven.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()

    @pytest.mark.parametrize("chunk", [7, sim.CHUNK_STEPS])
    def test_chunked_noise_is_the_per_step_stream(self, wingrock_proposed, monkeypatch, chunk):
        scn = _mid_chunk_noisy(wingrock_proposed)
        seen, stage_inputs = [], sim.ClosedLoopSystem.stage_inputs

        def spy(self, t, h, noise):
            seen.extend(zip(t.tolist(), noise))
            return stage_inputs(self, t, h, noise)

        monkeypatch.setattr(sim.ClosedLoopSystem, "stage_inputs", spy)
        monkeypatch.setattr(sim, "CHUNK_STEPS", chunk)
        sim.run(scn)
        # One draw per step from the step at or after the onset, as a per-step loop makes them.
        rng, std, h = np.random.default_rng(scn.noise.seed), np.asarray(scn.noise.std), scn.h
        want = [(k * h, rng.standard_normal(3) * std if k * h >= scn.noise.start_time else None)
                for k in range(scn.steps + 1)]
        assert [t for t, _ in seen] == [t for t, _ in want]
        assert [None if nu is None else nu.tobytes() for _, nu in seen] == \
            [None if nu is None else nu.tobytes() for _, nu in want]


@pytest.mark.parametrize("std, on", [((), False), ((0.0, 0.0, 0.0), False),
                                     ((0.0, 0.0, 1e-3), True)])
def test_noise_is_on_where_its_std_is(wingrock_proposed, std, on):
    scn = _mid_chunk_noisy(wingrock_proposed)
    scn = dataclasses.replace(scn, noise=dataclasses.replace(scn.noise, std=std))
    quiet = dataclasses.replace(scn, noise=sim.NoiseSpec())
    assert scn.noise.on is on
    assert np.array_equal(sim.run(scn).u, sim.run(quiet).u) is not on


def test_runs_reusing_buffers_stay_byte_deterministic(wingrock_proposed, tmp_path):
    # A noisy run, a quiet one and the noisy one again in one process.
    noisy = dataclasses.replace(
        wingrock_proposed, t_final=1.0, record_stride=1,
        noise=dataclasses.replace(wingrock_proposed.noise, start_time=0.5))
    csvs = []
    for i, scn in enumerate((noisy, quiet_wingrock(wingrock_proposed, t_final=1.0), noisy)):
        write_trajectory_csv(sim.run(scn), tmp_path / f"{i}.csv")
        csvs.append((tmp_path / f"{i}.csv").read_bytes())
    assert csvs[2] == csvs[0]
    assert csvs[1] != csvs[0]


class TestOracleTrajectory:
    def test_modified_architecture_matches_oracle(self, wingrock_proposed):
        # kappa = 100, eta = 5, h = 1e-3: 10 000 steps of the full coupled law.
        scn = quiet_wingrock(wingrock_proposed, t_final=10.0, record_stride=1)
        assert scn.controller.kappa > 0 and scn.controller.eta > 0
        traj = sim.run(scn)
        ref = oracle_for(scn).simulate(scn.x0, scn.x0, scn.t_final, scn.h)
        for name in ("x", "x_r", "x_ri", "e_L", "W_hat"):
            gap = float(np.max(np.abs(getattr(traj, name) - ref[name])))
            assert gap <= 1e-12, (name, gap)


class TestScenarioValidation:
    def test_bad_step_size(self):
        with pytest.raises(ValueError):
            _no_uncertainty_scenario(h=0.0)

    def test_horizon_shorter_than_step(self):
        with pytest.raises(ValueError):
            _no_uncertainty_scenario(t_final=1e-5, h=1e-3)

    @pytest.mark.parametrize("change, path", [
        (dict(x0=np.zeros(3)), "x0"),
        (dict(x_r0=[0.0]), "x_r0"),
        (dict(noise=sim.NoiseSpec(std=(1e-3,))), "noise.std"),
        (dict(E_p=np.ones((1, 2))), "E_p"),
        (dict(h=float("nan")), "h"),
        (dict(t_final=float("inf")), "t_final"),
        (dict(name="runs/clean"), "name"),
        (dict(x0=np.array([np.nan, 0.0])), "x0"),
        (dict(x_r0=np.array([0.0, np.inf])), "x_r0"),
        (dict(plant=_nan_truth_plant()), "plant.truth.W_p"),
        (dict(noise=sim.NoiseSpec(std=(1e-3, 0.0), start_time=np.nan)),
         "noise.start_time"),
        (dict(command=sim.CommandSpec(kind="step", amplitude=np.inf)), "command.amplitude"),
        (dict(command=sim.CommandSpec(kind="square_wave", amplitude=1.0, period=np.inf)),
         "command.period"),
        (dict(command=sim.CommandSpec(kind="custom", times=(0.0, 0.5), values=(1.0, np.nan))),
         "command.values"),
        (dict(x0=np.array([2.0 * sim.DIVERGENCE_LIMIT, 0.0])), "x0"),
        (dict(E_p=np.array([[np.nan]])), "E_p"),
        # The file's types: a bool is not an int.
        (dict(record_stride=2.5), "record_stride"),
        (dict(record_stride=True), "record_stride"),
        (dict(name=5), "name"),
        # A NoiseSpec checks itself, so these rows build it under the test.
        (lambda: dict(noise=sim.NoiseSpec(seed=1.5)), "noise.seed"),
        (lambda: dict(noise=sim.NoiseSpec(seed=True)), "noise.seed"),
        (dict(noise=sim.NoiseSpec(std=(0.0,))), "noise.std"),  # declared, though off
    ])
    def test_library_errors_name_the_field(self, change, path):
        # Built in code, a scenario fails as a config file would.
        with pytest.raises(sim.ConfigError) as err:
            _no_uncertainty_scenario(**(change() if callable(change) else change))
        assert err.value.path == path

    @pytest.mark.parametrize("bound", [dict(w_p_max=1.0), dict(w_p_dot_max=0.0)])
    def test_understated_truth_bound_rejected(self, wingrock_proposed, bound):
        # Built in code, a truth takes no declared bound; the scenario keeps the derived one.
        truth = wingrock_proposed.plant.truth
        with pytest.raises(TypeError, match=next(iter(bound))):
            dataclasses.replace(truth, **bound)
        assert truth.w_p_dot_max == 0.25

    @pytest.mark.parametrize("controller, path", [
        (dict(K=np.array([[2.0, 2.0, 1.0]])), "controller.K"),
        (dict(W_hat0=np.zeros((2, 1))), "controller.W_hat0"),
        (dict(K=np.array([[np.nan, 1.0]])), "controller.K"),
        (dict(gamma=np.nan, kappa=np.nan), "controller.gamma"),
        (dict(gamma=np.inf), "controller.gamma"),
        (dict(kappa=np.nan), "controller.kappa"),
        (dict(eta=np.inf), "controller.eta"),
        (dict(W_hat0=np.full((3, 1), np.nan)), "controller.W_hat0"),
        # A NaN residual fails every comparison; the check asks for residual <= tol.
        (dict(lyap=_lyap_with_nan("P")), "controller.R"),
        (dict(lyap=_lyap_with_nan("R")), "controller.R"),
    ])
    def test_library_controller_errors_name_the_field(self, controller, path):
        scn = _no_uncertainty_scenario()
        with pytest.raises(sim.ConfigError) as err:
            dataclasses.replace(scn, controller=dataclasses.replace(scn.controller, **controller))
        assert err.value.path == path
