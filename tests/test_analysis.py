import dataclasses
import math

import numpy as np
import pytest

from flmrac import analysis
from flmrac.matrixcore import LyapunovPair
from flmrac.plantmodel import aggregate_true_weights
from flmrac.simcli import load_config
from flmrac.simulator import NoiseSpec, Trajectory, run

from helpers import scalar_scenario
from oracles import (bound_transient_modified, bound_ultimate_time_varying,
                     loop_transfer_rational)

WINGROCK_AR = np.array([[0.0, 1.0, 0.0], [-2.0, -2.0, -1.0], [1.0, 0.0, 0.0]])


def synthetic_traj(t, n=1, m=1, sn=2, **signals) -> Trajectory:
    N = len(t)
    fields = dict(
        x=np.zeros((N, n)), x_r=np.zeros((N, n)), x_ri=np.zeros((N, n)),
        e_L=np.zeros((N, n)), u=np.zeros((N, m)), W_hat=np.zeros((N, sn, m)),
        c=np.zeros((N, 0)),
    )
    fields.update(signals)
    return Trajectory(t=np.asarray(t, dtype=float), **fields)


class TestLinfNorm:
    def test_constant_vector_signal(self):
        t = np.linspace(0.0, 1.0, 11)
        traj = synthetic_traj(t, n=2, x=np.tile([2.0, -3.0], (11, 1)))
        assert analysis.linf_norm(traj, "x") == 3.0

    def test_zero_trajectory(self):
        traj = synthetic_traj(np.linspace(0.0, 1.0, 11))
        assert analysis.linf_norm(traj, "e") == 0.0

    def test_sampled_sine(self):
        t = np.arange(0.0, 2.0 * np.pi, 1e-3)
        traj = synthetic_traj(t, u=np.sin(t)[:, None])
        assert analysis.linf_norm(traj, "u") == pytest.approx(1.0, abs=1e-6)

    def test_derived_signals(self):
        t = np.linspace(0.0, 1.0, 5)
        traj = synthetic_traj(t, x=np.ones((5, 1)), x_ri=0.25 * np.ones((5, 1)),
                              x_r=np.full((5, 1), 0.5))
        assert analysis.linf_norm(traj, "x_err_ideal") == pytest.approx(0.75)
        assert analysis.linf_norm(traj, "x_tilde") == pytest.approx(0.25)

    def test_unknown_signal(self):
        traj = synthetic_traj(np.linspace(0.0, 1.0, 5))
        with pytest.raises(analysis.UnknownSignalError):
            analysis.linf_norm(traj, "bogus")


class TestSignal:
    @pytest.fixture(scope="class")
    def noisy_traj(self):
        scn, _ = load_config("wingrock_proposed")
        noise = dataclasses.replace(scn.noise, start_time=0.0)
        return run(dataclasses.replace(scn, t_final=0.5, record_stride=3, noise=noise))

    def test_accepts_exactly_the_trajectory_signals(self, noisy_traj):
        for name in Trajectory.SIGNALS:
            arr = analysis.signal(noisy_traj, name)
            assert arr.ndim == 2 and arr.shape[0] == len(noisy_traj), name
        for name in set(dir(noisy_traj)) - set(Trajectory.SIGNALS):  # t, W_hat, methods
            with pytest.raises(analysis.UnknownSignalError):
                analysis.signal(noisy_traj, name)

    def test_derived_signals_match_their_definitions_exactly(self, noisy_traj):
        tr = noisy_traj
        x, x_r, x_ri, e_L = tr.x, tr.x_r, tr.x_ri, tr.e_L
        assert np.array_equal(analysis.signal(tr, "e"), x - x_r)
        assert np.array_equal(analysis.signal(tr, "e_H"), x - x_r - e_L)
        assert np.array_equal(analysis.signal(tr, "x_err_ideal"), x - x_ri)
        assert np.array_equal(analysis.signal(tr, "x_tilde"), x_r - x_ri)
        assert np.any(tr.x_r != tr.x_ri) and np.any(tr.e_L != 0.0)


class TestBoundStandardMrac:
    def test_zero_initial_error_weight(self):
        assert analysis.bound_standard_mrac(100.0, np.eye(2), np.zeros((3, 2)),
                                            [1.0, 1.0]) == 0.0

    def test_scalar_substitution(self):
        val = analysis.bound_standard_mrac(100.0, np.array([[1.0]]),
                                           np.array([[1.0]]), [1.0])
        assert val == pytest.approx(0.1)

    def test_zero_initial_error_leaves_the_value_bit_for_bit(self):
        rng = np.random.default_rng(7)
        W, P, lam = rng.standard_normal((4, 2)), np.diag([0.5, 2.0]), [0.75, 1.25]
        old = analysis._weighted_fro(W, lam) / math.sqrt(50.0 * 0.5)
        assert analysis.bound_standard_mrac(50.0, P, W, lam) == old
        assert analysis.bound_standard_mrac(50.0, P, W, lam, np.zeros(2)) == old

    def test_initial_error_term(self):
        # sqrt((||W||^2 / gamma + lambda_max(P) ||e0||^2) / lambda_min(P)), e0 = (3, 4).
        P, W = np.diag([0.5, 2.0]), np.array([[1.0], [2.0]])
        val = analysis.bound_standard_mrac(10.0, P, W, [1.0], e0=[3.0, 4.0])
        assert val == pytest.approx(math.sqrt((5.0 / 10.0 + 2.0 * 25.0) / 0.5), rel=1e-14)

    def test_sqrt_gamma_scaling(self):
        rng = np.random.default_rng(6)
        W = rng.standard_normal((4, 2))
        P = np.diag([0.5, 2.0])
        b1 = analysis.bound_standard_mrac(50.0, P, W, [0.75, 1.25])
        b4 = analysis.bound_standard_mrac(200.0, P, W, [0.75, 1.25])
        assert b4 == pytest.approx(b1 / 2.0, rel=1e-12)

    @pytest.mark.parametrize("W, lam", [
        ([[5.64e102]], [5.64e104]),          # one entry whose square overflows
        ([[3e154], [-4e154]], [1.0]),       # each square fits, their sum does not
        ([[1e160, 1e-5], [2.0, -1e159]], [0.5, 7.0]),
    ])
    def test_finite_norm_whose_squares_overflow(self, W, lam):
        want = math.hypot(*(np.asarray(W) * np.sqrt(lam)).ravel())
        assert analysis._weighted_fro(W, lam) == pytest.approx(want, rel=1e-14, abs=0.0)
        # gamma = lambda_min(P) = 1: the bound is the norm itself.
        assert analysis.bound_standard_mrac(1.0, np.eye(1), W, lam) == pytest.approx(
            want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("lam", [-1.0, math.inf, math.nan])
    def test_negative_or_nonfinite_lambda_rejected(self, lam):
        # W = 0 with Lambda = inf would be 0 * inf = NaN.
        with pytest.raises(ValueError, match="finite and nonnegative"):
            analysis._weighted_fro([[0.0]], [lam])

    @pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan])
    def test_nonfinite_W_rejected(self, w):
        # With Lambda = 0, W = inf would be inf * 0 = NaN.
        with pytest.raises(ValueError, match="W entries must be finite"):
            analysis._weighted_fro([[w]], [0.0])
        with pytest.raises(ValueError, match="W entries must be finite"):
            analysis._weighted_fro([[1.0, w]], [1.0, 1.0])


@pytest.fixture(scope="module")
def wingrock_lyap():
    return LyapunovPair.for_closed_loop(WINGROCK_AR, np.eye(3))


class TestBoundTransientModified:
    def test_small_kappa_approaches_classical(self, wingrock_lyap):
        W = np.ones((9, 1))
        classical = analysis.bound_standard_mrac(500.0, wingrock_lyap.P, W, [0.75])
        nearly = analysis.bound_modified_transient(500.0, 1e-12, 0.5, wingrock_lyap,
                                            W, [0.75], np.zeros(3))
        assert nearly == pytest.approx(classical, rel=1e-5)

    def test_gamma_scaling_with_zero_e0(self, wingrock_lyap):
        W = np.ones((9, 1))
        b = analysis.bound_modified_transient(500.0, 100.0, 0.5, wingrock_lyap, W,
                                       [0.75], np.zeros(3))
        b4 = analysis.bound_modified_transient(2000.0, 100.0, 0.5, wingrock_lyap, W,
                                        [0.75], np.zeros(3))
        assert b4 == pytest.approx(b / 2.0, rel=1e-12)

    def test_against_hand_substitution(self, wingrock_lyap):
        rng = np.random.default_rng(15)
        W = rng.standard_normal((9, 1))
        e0 = rng.standard_normal(3) * 0.1
        lam = [0.75]
        got = analysis.bound_modified_transient(500.0, 100.0, 0.5, wingrock_lyap, W, lam, e0)
        ex = wingrock_lyap.extremes()
        want = bound_transient_modified(
            500.0, 100.0, 0.5, ex["lam_min_P"], ex["lam_max_P"], ex["lam_min_R"],
            float(np.linalg.norm(W * math.sqrt(0.75))), float(np.linalg.norm(e0)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_xi_range_enforced(self, wingrock_lyap):
        with pytest.raises(ValueError):
            analysis.bound_modified_transient(1.0, 1.0, 1.0, wingrock_lyap,
                                       np.ones((9, 1)), [1.0], np.zeros(3))


class TestBoundUltimate:
    def test_zero_rate_collapses_bracket(self, wingrock_lyap):
        got = analysis.bound_time_varying_ultimate(500.0, 100.0, 5.0, 0.5, wingrock_lyap,
                                         [0.75], 30.0, 0.0)
        ex = wingrock_lyap.extremes()
        rho = 0.75 * 30.0**2 / 500.0
        want = math.sqrt(rho / ex["lam_min_P"]) * (
            1.0 + math.sqrt(100.0 * ex["lam_max_P"] / (2.0 * 0.5 * ex["lam_min_R"])))
        assert got == pytest.approx(want, rel=1e-12)

    def test_monotone_in_rate_bound(self, wingrock_lyap):
        vals = [analysis.bound_time_varying_ultimate(500.0, 100.0, 5.0, 0.5, wingrock_lyap,
                                           [0.75], 30.0, wd)
                for wd in (0.0, 0.1, 0.5, 2.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_against_hand_substitution(self, wingrock_lyap):
        ex = wingrock_lyap.extremes()
        got = analysis.bound_time_varying_ultimate(500.0, 100.0, 5.0, 0.4, wingrock_lyap,
                                         [0.75], 41.0, 0.34)
        want = bound_ultimate_time_varying(
            500.0, 100.0, 5.0, 0.4, ex["lam_min_P"], ex["lam_max_P"],
            ex["lam_min_R"], 0.75, 41.0, 0.34)
        assert got == pytest.approx(want, rel=1e-12)


class TestOptimalXi:
    def test_parabola(self):
        xi, val = analysis.optimal_xi(lambda x: (x - 0.3) ** 2 + 1.0)
        assert xi == pytest.approx(0.3, abs=1e-6)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_transient_bound_monotone_in_xi(self, wingrock_lyap):
        f = lambda x: analysis.bound_modified_transient(500.0, 100.0, x, wingrock_lyap,
                                                 np.ones((9, 1)), [0.75], np.zeros(3))
        xi, val = analysis.optimal_xi(f)
        assert xi > 0.99
        assert val <= f(0.5)
        # What bound_report_for reports without a search.
        assert (xi, val) == (analysis.XI_MAX, f(analysis.XI_MAX))

    def test_ultimate_bound_interior_optimum(self, wingrock_lyap):
        f = lambda x: analysis.bound_time_varying_ultimate(500.0, 100.0, 5.0, x,
                                                 wingrock_lyap, [0.75], 30.0, 0.3)
        xi, val = analysis.optimal_xi(f)
        assert 0.001 < xi < 0.999
        assert val <= f(min(xi + 0.05, 0.999)) and val <= f(max(xi - 0.05, 0.001))

    def test_search_stops_once_its_bracket_repeats(self, wingrock_lyap):
        # The full 200-step search evaluates a bound 203 times.
        bounds = (
            lambda x: analysis.bound_modified_transient(500.0, 100.0, x, wingrock_lyap,
                                                        np.ones((9, 1)), [0.75], np.zeros(3)),
            lambda x: analysis.bound_time_varying_ultimate(500.0, 100.0, 5.0, x, wingrock_lyap,
                                                           [0.75], 30.0, 0.3),
        )
        for f in bounds:
            calls = []
            analysis.optimal_xi(lambda x: calls.append(x) or f(x))
            assert len(calls) <= 100


class TestBoundReport:
    def test_ultimate_bound_does_not_depend_on_the_horizon(self, wingrock_proposed):
        # The truth's norm budget is a supremum over all t >= 0: a run that ends
        # before the 45 s sin modulation starts gets the same bound as one past it.
        traj = run(dataclasses.replace(wingrock_proposed, t_final=0.01))
        reports = [analysis.bound_report_for(dataclasses.replace(wingrock_proposed, t_final=t), traj)
                   for t in (0.0, 1.0, 2.0, 90.0)]
        theta_max = wingrock_proposed.controller.projection.theta_max
        for report in reports:
            assert report.kind == "time_varying_ultimate"
            assert report.inputs["w_tilde_max"] == theta_max + 16.431676725154983
            assert report.bound_value == reports[-1].bound_value

    def test_classical_bound_counts_the_initial_error(self):
        # x0 != x_r0: e(0) = 0.5 enters eps_V through lambda_max(P) ||e0||^2.
        scn = scalar_scenario(gamma=50.0, kappa=0.0, h=1e-3, x0=0.5, x_r0=0.0, w_truth=0.05)
        report = analysis.bound_report_for(scn, run(scn))
        assert report.kind == "standard_transient"
        assert report.observed == 0.5
        # P = 1/4: sqrt((0.25 * 0.5^2 + 0.05^2 / 50) / 0.25).
        assert report.bound_value == pytest.approx(math.sqrt(0.25 + 2e-4), rel=1e-14)
        assert report.satisfied

    def test_modified_transient_reports_its_tightest_xi(self):
        # kappa > 0 without projection: the modified transient bound at BOUND_XI,
        # and at XI_MAX, where it is tightest.
        scn, _ = load_config("wingrock_kappa_only")
        scn = dataclasses.replace(scn, t_final=0.5)
        traj = run(scn)
        report = analysis.bound_report_for(scn, traj)
        cfg, lam = scn.controller, scn.plant.Lambda
        W_tilde0 = traj.W_hat[0] - aggregate_true_weights(scn.plant.truth, lam, cfg.K, t=0.0)

        def bound_at(xi):
            return analysis.bound_modified_transient(cfg.gamma, cfg.kappa, xi, cfg.lyap,
                                                     W_tilde0, lam, traj.e[0])

        assert report.kind == "modified_transient"
        assert report.inputs["xi"] == analysis.BOUND_XI
        assert report.inputs["xi_star"] == analysis.XI_MAX
        assert report.bound_value == bound_at(analysis.BOUND_XI)
        assert report.inputs["bound_at_xi_star"] == bound_at(analysis.XI_MAX)
        assert report.inputs["bound_at_xi_star"] < report.bound_value
        assert report.observed == analysis.linf_norm(traj, "x_err_ideal")


class TestRunMetrics:
    @staticmethod
    def noisy_run(start_time):
        # A 2 s scalar run whose ||x - x_ri|| peaks at 0.88 s.
        scn = dataclasses.replace(scalar_scenario(h=1e-3),
                                  noise=NoiseSpec(std=(0.01,), start_time=start_time, seed=3))
        return scn, run(scn)

    def test_row_holds_the_run_figures(self):
        scn, traj = self.noisy_run(start_time=1.0)
        row = analysis.run_metrics(scn, traj)
        report = analysis.bound_report_for(scn, traj)
        err = np.max(np.abs(analysis.signal(traj, "x_err_ideal")), axis=1)
        assert row == {
            "name": "scalar", "gamma": 50.0, "kappa": 100.0, "eta": 0.0,
            "tracking_linf": analysis.linf_norm(traj, "x_err_ideal"),
            "tracking_linf_post": float(np.max(err[traj.t >= 1.0])),
            "hf_content_u": analysis.hf_content(traj, analysis.DEFAULT_HF_CUTOFF),
            "max_abs_u": analysis.linf_norm(traj, "u"),
            "bound_kind": report.kind, "bound_value": report.bound_value,
            "bound_observed": report.observed, "bound_satisfied": report.satisfied,
        }
        assert row["tracking_linf_post"] < row["tracking_linf"]

    def test_no_sample_after_the_noise_start(self):
        scn, traj = self.noisy_run(start_time=2.5)
        assert analysis.run_metrics(scn, traj)["tracking_linf_post"] is None


class TestDecayFit:
    def test_recovers_pure_exponential(self):
        kappa = 137.0
        t = np.arange(0.0, 0.1, 1e-5)
        eh = np.exp(-kappa * t)[:, None] * np.array([0.4])
        traj = synthetic_traj(t, x=eh)  # x_r = e_L = 0, so e_H = x
        rate, floor = analysis.decay_fit(traj, t_window=1.0 / kappa)
        assert rate == pytest.approx(kappa, rel=1e-6)
        assert floor == pytest.approx(0.4 * np.exp(-kappa * t[t >= 5.0 / kappa][0]),
                                      rel=1e-6)

    def test_requires_nonzero_start(self):
        t = np.linspace(0.0, 1.0, 100)
        traj = synthetic_traj(t)
        with pytest.raises(ValueError):
            analysis.decay_fit(traj, 0.5)

    def test_requires_enough_samples(self):
        t = np.linspace(0.0, 1.0, 100)
        traj = synthetic_traj(t, x=np.exp(-t)[:, None])
        with pytest.raises(ValueError, match="window"):
            analysis.decay_fit(traj, 0.05)


class TestLoopTransfer:
    def test_kappa_zero_cancels_lead_factor(self):
        for w in (0.1, 1.0, 10.0):
            g = analysis.loop_transfer(100.0, 0.0, 7.0, 1.0, w)
            s = 1j * w
            assert g == pytest.approx((100.0 / s) * (1.0 / (s + 1.0)), rel=1e-12)

    def test_high_frequency_asymptote(self):
        w = 1e4
        g = analysis.loop_transfer(100.0, 0.0, 0.0, 1.0, w)
        assert abs(g) == pytest.approx(100.0 * 1.0 / w**2, rel=1e-3)

    def test_two_evaluation_paths_agree(self):
        for w in (0.01, 0.3, 1.0, 17.0, 300.0):
            a = analysis.loop_transfer(100.0, 50.0, 10.0, 1.0, w)
            b = loop_transfer_rational(100.0, 50.0, 10.0, 1.0, w)
            assert a == pytest.approx(b, rel=1e-12)

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            analysis.loop_transfer(100.0, 50.0, 10.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            analysis.loop_phase(100.0, 50.0, 10.0, 1.0, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("loop, name", [
        ((math.nan, 50.0, 10.0, 1.0), "gamma"),
        ((-100.0, 50.0, 10.0, 1.0), "gamma"),
        ((100.0, -1.0, 10.0, 1.0), "kappa"),
        ((100.0, 50.0, math.inf, 1.0), "eta"),
        ((100.0, 50.0, 10.0, 0.0), "alpha"),
    ])
    def test_rejects_parameters_outside_the_domain(self, loop, name):
        for f in (lambda: analysis.loop_transfer(*loop, 1.0),
                  lambda: analysis.loop_phase(*loop, 1.0),
                  lambda: analysis.margins(*loop)):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                f()

    @pytest.mark.parametrize("loop, name", [
        ((1e200, 1.0, 0.0, 1.0), "gamma"),
        ((100.0, 1e200, 0.0, 1.0), "kappa"),
        ((100.0, 50.0, 1e200, 1.0), "eta"),
        ((100.0, 50.0, 10.0, 1e200), "alpha"),
        ((1e100, 0.0, 0.0, 1e100), "gamma"),  # each square fits; their products overflow
    ])
    def test_rejects_a_loop_whose_crossover_cubic_overflows(self, loop, name):
        # margins squares the parameters; a finite but huge one is a ValueError, not an
        # OverflowError or a LinAlgError from np.roots.
        for f in (lambda: analysis.loop_transfer(*loop, 1.0), lambda: analysis.margins(*loop)):
            with pytest.raises(ValueError, match=f"^{name} is too large"):
                f()

    @pytest.mark.parametrize("loop, name", [
        ((1e-320, 0.0, 0.0, 1.0), "gamma"),
        ((1.0, 0.0, 0.0, 1e-320), "alpha"),
        ((1e-300, 0.0, 0.0, 1e-30), "gamma"),  # the smaller of the two gain factors
    ])
    def test_rejects_a_gain_that_underflows(self, loop, name):
        # 20 log10 |G| of 0 would be -inf with a numpy divide warning.
        for f in (lambda: analysis.loop_gain_db(*loop, np.array([1.0, 1e4])),
                  lambda: analysis.band_gains_db(*loop)):
            with pytest.raises(ValueError, match=f"^{name} is too small"):
                f()

    def test_array_matches_scalar_evaluation(self):
        w = np.logspace(-3.0, 4.0, 57)
        g = analysis.loop_transfer(100.0, 50.0, 10.0, 1.0, w)
        ph = analysis.loop_phase(100.0, 50.0, 10.0, 1.0, w)
        for i, wi in enumerate(w):
            assert g[i] == pytest.approx(analysis.loop_transfer(100.0, 50.0, 10.0, 1.0, wi),
                                         rel=1e-13)
            assert ph[i] == pytest.approx(analysis.loop_phase(100.0, 50.0, 10.0, 1.0, wi),
                                          rel=1e-13)

    def test_phase_matches_principal_argument(self):
        for w in (0.05, 0.7, 5.0, 80.0):
            ph = analysis.loop_phase(100.0, 50.0, 10.0, 1.0, w)
            g = analysis.loop_transfer(100.0, 50.0, 10.0, 1.0, w)
            assert math.remainder(ph - np.angle(g), 2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)


class TestMargins:
    def test_delay_margin_identity(self):
        rep = analysis.margins(100.0, 50.0, 10.0, 1.0)
        assert rep.delay_margin * rep.gain_crossover == pytest.approx(
            math.radians(rep.phase_margin), rel=1e-12)

    def test_crossover_is_unity_gain(self):
        rep = analysis.margins(100.0, 50.0, 10.0, 1.0)
        assert abs(analysis.loop_transfer(100.0, 50.0, 10.0, 1.0,
                                          rep.gain_crossover)) == pytest.approx(1.0, abs=1e-9)

    def test_gamma_doubling_raises_gain_6db(self):
        for w in (0.01, 1.0, 50.0):
            g1 = abs(analysis.loop_transfer(100.0, 50.0, 10.0, 1.0, w))
            g2 = abs(analysis.loop_transfer(200.0, 50.0, 10.0, 1.0, w))
            assert 20.0 * math.log10(g2 / g1) == pytest.approx(6.0206, abs=1e-3)

    # With kappa = eta = 0 and alpha = 1 the crossover lies below MARGIN_BAND for gamma < 1
    # and above it for the rest: for gamma <= 1e-160 omega^2 underflows to 0, and 1e-3 and
    # 1.0000001e8 put it just beyond a band edge.
    @pytest.mark.parametrize("gamma", [1e-320, 1e-160, 1e-12, 1e-3, 1.0000001e8, 1e9])
    def test_no_crossover_raises(self, gamma):
        side = "below" if gamma < 1.0 else "above"
        with pytest.raises(analysis.NoCrossoverError) as err:
            analysis.margins(gamma, 0.0, 0.0, 1.0)
        assert str(err.value) == f"the gain crossover lies outside [0.001, 10000] rad/s, {side} it"


class TestHfContent:
    def test_constant_signal(self):
        t = np.linspace(0.0, 10.0, 128)
        assert analysis.spectrum_fraction_above(t, np.full(128, 3.0), 10.0) == 0.0

    def test_low_tone_leaks_little(self):
        T = 8.0 * np.pi
        t = np.linspace(0.0, T, 1025)[:-1]
        v = np.sin(1.0 * t)
        assert analysis.spectrum_fraction_above(t, v, 10.0) <= 0.01

    def test_equal_power_tones_split(self):
        T = 4.0 * np.pi  # integer periods of both tones
        t = np.linspace(0.0, T, 4097)[:-1]
        v = np.sin(1.0 * t) + np.sin(100.0 * t)
        frac = analysis.spectrum_fraction_above(t, v, 10.0)
        assert frac == pytest.approx(0.5, abs=0.05)

    def test_needs_64_samples(self):
        t = np.linspace(0.0, 1.0, 32)
        with pytest.raises(ValueError):
            analysis.spectrum_fraction_above(t, np.sin(t), 1.0)

    def test_rejects_nonuniform_sampling(self):
        t = np.concatenate([np.linspace(0.0, 1.0, 64), [1.5]])
        with pytest.raises(ValueError, match="uniform"):
            analysis.spectrum_fraction_above(t, np.zeros(65), 1.0)

    @pytest.mark.parametrize("t", [np.full(64, 2.0), np.linspace(1.0, 0.0, 64)])
    def test_rejects_a_time_step_that_is_not_positive(self, t):
        with pytest.raises(ValueError, match="uniform"):
            analysis.spectrum_fraction_above(t, np.sin(np.arange(64.0)), 1.0)

    @pytest.mark.parametrize("n_t, n_v", [(64, 1000), (1000, 64)])
    def test_rejects_times_and_values_of_different_lengths(self, n_t, n_v):
        t = np.arange(float(n_t))
        with pytest.raises(ValueError, match=f"{n_t} times but {n_v} samples"):
            analysis.spectrum_fraction_above(t, np.sin(np.arange(float(n_v))), 0.1)

    @pytest.mark.parametrize("cutoff", [math.nan, math.inf, -1.0, -math.inf])
    def test_rejects_a_cutoff_that_is_not_finite_and_nonnegative(self, cutoff):
        t = np.linspace(0.0, 10.0, 128)
        with pytest.raises(ValueError, match="cutoff"):
            analysis.spectrum_fraction_above(t, np.sin(t), cutoff)

    def test_zero_cutoff_counts_all_but_dc(self):
        t = np.linspace(0.0, 10.0, 128)
        assert analysis.spectrum_fraction_above(t, 3.0 + np.sin(t), 0.0) == 1.0

    def test_trajectory_wrapper(self):
        t = np.linspace(0.0, 4.0 * np.pi, 2049)[:-1]
        traj = synthetic_traj(t, u=np.sin(100.0 * t)[:, None])
        assert analysis.hf_content(traj, 10.0) > 0.95


class TestCompositeLyapunov:
    def test_matches_manual_evaluation(self):
        lyap = LyapunovPair.for_closed_loop(WINGROCK_AR, np.eye(3))
        rng = np.random.default_rng(21)
        N = 4
        t = np.linspace(0.0, 1.0, N)
        x = rng.standard_normal((N, 3))
        x_r = rng.standard_normal((N, 3))
        x_ri = rng.standard_normal((N, 3))
        e_L = rng.standard_normal((N, 3))
        W_hat = rng.standard_normal((N, 9, 1))
        traj = synthetic_traj(t, n=3, sn=9, x=x, x_r=x_r, x_ri=x_ri, e_L=e_L, W_hat=W_hat)
        W_true = rng.standard_normal((9, 1))
        gamma, kappa, eta, xi, lam = 500.0, 100.0, 5.0, 0.5, [0.75]
        V = analysis.composite_lyapunov(traj, lyap, gamma, kappa, eta, xi, lam, W_true)
        ex = lyap.extremes()
        i = 2
        e = x[i] - x_r[i]
        Wt = (W_hat[i] - W_true) * math.sqrt(0.75)
        xt = x_r[i] - x_ri[i]
        manual = (e @ lyap.P @ e
                  + np.sum(Wt**2) / gamma
                  + kappa / eta * (e_L[i] @ lyap.P @ e_L[i])
                  + 2 * xi * ex["lam_min_R"] / (kappa * ex["lam_max_P"])
                  * (xt @ lyap.P @ xt))
        assert V[i] == pytest.approx(manual, rel=1e-12)
        assert np.all(V > 0)
