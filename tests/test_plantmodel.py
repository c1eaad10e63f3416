import dataclasses
import math

import numpy as np
import pytest

from flmrac import plantmodel as pm
from flmrac.matrixcore import DimensionError
from flmrac.simulator import ConfigError, assemble

from helpers import scalar_plant

WINGROCK_BASIS = pm.BasisSpec(("bias", "x1", "x2", "abs_x1_x2", "abs_x2_x2", "x1_cubed"))


def wingrock_truth(alpha1_mod=True):
    W = np.array([0.25, 0.5, 1.0, -5.0, 5.0, 10.0]).reshape(6, 1)
    mods = (pm.Modulation(row=0, col=0, kind="sin", start=45.0),) if alpha1_mod else ()
    return pm.UncertaintyTruth(W_p_base=W, modulations=mods,
                               w_p_max=12.31, w_p_dot_max=0.25)


def wingrock_plant():
    return pm.PlantModel(A_p=[[0.0, 1.0], [0.0, 0.0]], B_p=[[0.0], [1.0]],
                         Lambda=[0.75], truth=wingrock_truth(), basis=WINGROCK_BASIS)


def _delta(truth, t, x_p):
    """delta_p(t, x_p) = W_p(t)' sigma_p(x_p), as ClosedLoopSystem.deriv forms it."""
    return WINGROCK_BASIS.eval_plant(t, x_p) @ truth.W_p(t)


class TestEvalBasis:
    """The aggregated basis sigma(x) = [sigma_p(x_p); x] of ClosedLoopSystem.measured_basis."""

    def test_origin(self, wingrock_proposed):
        sigma = assemble(wingrock_proposed).measured_basis(np.zeros(3))
        assert np.array_equal(sigma, np.array([1.0, 0, 0, 0, 0, 0, 0, 0, 0]))

    def test_hand_evaluated_point(self, wingrock_proposed):
        x = np.array([1.0, 2.0, 0.5])
        sigma = assemble(wingrock_proposed).measured_basis(x)
        assert np.allclose(sigma[:6], [1.0, 1.0, 2.0, 2.0, 4.0, 1.0])
        assert np.allclose(sigma[6:], [1.0, 2.0, 0.5])
        assert np.array_equal(sigma[:6], WINGROCK_BASIS.eval_plant(0.0, x[:2]))

    def test_rate_features_vanish_with_x2(self):
        sigma_p = WINGROCK_BASIS.eval_plant(1.0, np.array([-3.0, 0.0]))
        assert sigma_p[3] == 0.0 and sigma_p[4] == 0.0

    def test_dimension_mismatch(self, wingrock_proposed):
        # The plant state alone is not the augmented state; the scenario says so.
        for path in ("x0", "x_r0"):
            with pytest.raises(ConfigError) as err:
                dataclasses.replace(wingrock_proposed, **{path: np.zeros(2)})
            assert err.value.path == path

    def test_unknown_feature_name(self):
        with pytest.raises(KeyError):
            pm.BasisSpec(("bias", "nonsense"))

    def test_generic_component_names(self):
        basis = pm.BasisSpec(("x2", "x1"))
        assert np.allclose(basis.eval_plant(0.0, np.array([3.0, 5.0])), [5.0, 3.0])


class TestEvalUncertainty:
    def test_zero_at_origin(self):
        assert _delta(wingrock_truth(), 0.0, np.zeros(2)) == pytest.approx(0.0)

    def test_hand_evaluated(self):
        # x_p = (1, 0) before the disturbance switch: 0.5*1 + 10*1^3
        assert _delta(wingrock_truth(), 0.0, np.array([1.0, 0.0]))[0] == pytest.approx(10.5)

    def test_disturbance_gated_at_switch(self):
        truth = wingrock_truth()
        x_p = np.array([0.0, 0.0])
        assert _delta(truth, 44.0, x_p)[0] == 0.0
        assert _delta(truth, 46.0, x_p)[0] == pytest.approx(0.25 * np.sin(46.0))

    def test_constant_truth_time_invariant(self):
        truth = wingrock_truth(alpha1_mod=False)
        x_p = np.array([0.3, -0.2])
        vals = [_delta(truth, t, x_p) for t in (0.0, 1.7, 42.0, 90.0)]
        for v in vals[1:]:
            assert np.array_equal(v, vals[0])


class TestTruthBounds:
    def test_declared_bounds_hold_on_grid(self):
        wingrock_truth().check_bounds(np.linspace(0.0, 90.0, 2001))

    @pytest.mark.parametrize("bound", ["w_p_max", "w_p_dot_max"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bounds_must_be_finite_and_nonnegative(self, bound, value):
        # A NaN bound would pass every comparison in check_bounds.
        with pytest.raises(ValueError, match="finite and nonnegative"):
            pm.UncertaintyTruth(W_p_base=np.array([[1.0]]), **{bound: value})

    @pytest.mark.parametrize("start", [float("nan"), float("inf"), float("-inf")])
    def test_modulation_start_must_be_finite(self, start):
        # A NaN start fails "t < start" at every t, which switched the entry on from t = 0.
        with pytest.raises(ValueError, match="start must be finite"):
            pm.Modulation(row=0, col=0, kind="sin", start=start)

    def test_violated_norm_bound_detected(self):
        truth = pm.UncertaintyTruth(W_p_base=np.array([[3.0]]), w_p_max=1.0)
        with pytest.raises(ValueError):
            truth.check_bounds([0.0, 1.0])

    @pytest.mark.parametrize("truth, grid", [
        # step switch inside the grid: the jump itself is exempt
        (pm.UncertaintyTruth(W_p_base=np.array([[1.0], [2.0]]),
                             modulations=(pm.Modulation(row=1, col=0, kind="step", start=0.35),),
                             w_p_max=2.5, w_p_dot_max=0.0), np.linspace(0.0, 1.0, 11)),
        # norm violated only after the step switches on
        (pm.UncertaintyTruth(W_p_base=np.array([[1.0], [2.0]]),
                             modulations=(pm.Modulation(row=1, col=0, kind="step", start=0.35),),
                             w_p_max=1.5, w_p_dot_max=0.0), np.linspace(0.0, 1.0, 11)),
        # sin rate above its bound, first seen one sample after the switch
        (pm.UncertaintyTruth(W_p_base=np.array([[0.0, 4.0]]),
                             modulations=(pm.Modulation(row=0, col=1, kind="sin", start=0.3),),
                             w_p_max=5.0, w_p_dot_max=1.0), np.linspace(0.0, 2.0, 41)),
        # norm and rate first violated at the same sample: the norm is reported
        (pm.UncertaintyTruth(W_p_base=np.array([[0.0, 4.0]]),
                             modulations=(pm.Modulation(row=0, col=1, kind="sin", start=0.0),),
                             w_p_max=1.0, w_p_dot_max=1.0), [0.0, 1.0]),
        # repeated and decreasing times are skipped by the rate test
        (pm.UncertaintyTruth(W_p_base=np.array([[3.0]]),
                             modulations=(pm.Modulation(row=0, col=0, kind="sin", start=0.0),),
                             w_p_max=3.0, w_p_dot_max=3.0), [0.0, 0.5, 0.5, 0.2, 1.0]),
        (wingrock_truth(), np.linspace(0.0, 90.0, 401)),
        (wingrock_truth(), []),
    ])
    def test_check_bounds_matches_per_sample_loop(self, truth, grid):
        def outcome(check):
            try:
                check(grid)
            except ValueError as exc:
                return str(exc)
            return None

        assert outcome(truth.check_bounds) == outcome(lambda g: _check_bounds_per_sample(truth, g))


def _check_bounds_per_sample(truth, t_grid):
    """Reference: check_bounds as one W_p(t) evaluation per sample."""
    ts = np.asarray(t_grid, dtype=float)
    prev = None
    for i, t in enumerate(ts):
        W = truth.W_p(float(t))
        if np.linalg.norm(W) > truth.w_p_max + 1e-9:
            raise ValueError(f"||W_p({t})||_F exceeds declared bound {truth.w_p_max}")
        if prev is not None:
            dt = float(t - ts[i - 1])
            crosses = any(ts[i - 1] < mod.start <= t for mod in truth.modulations)
            if dt > 0 and not crosses:
                rate = np.linalg.norm(W - prev) / dt
                if rate > truth.w_p_dot_max + 1e-6:
                    raise ValueError(
                        f"||dW_p/dt|| ~ {rate:.3g} near t={t} exceeds bound {truth.w_p_dot_max}"
                    )
        prev = W


class TestTruthGrid:
    @pytest.mark.parametrize("mods", [
        (),
        (pm.Modulation(row=1, col=0, kind="step", start=3.0),),
        (pm.Modulation(row=0, col=0, kind="sin", start=45.0),),
        (pm.Modulation(row=0, col=1, kind="sin", start=0.0),
         pm.Modulation(row=0, col=1, kind="step", start=2.5),
         pm.Modulation(row=2, col=0, kind="sin", start=7.0)),
    ])
    def test_grid_equals_pointwise(self, mods):
        rng = np.random.default_rng(len(mods))
        truth = pm.UncertaintyTruth(W_p_base=rng.standard_normal((6, 2)), modulations=mods)
        ts = np.concatenate([np.linspace(0.0, 60.0, 1201), [2.5, 3.0, 45.0, -1.0]])
        grid = truth.W_p_grid(ts)
        assert grid.shape == (ts.size, 6, 2)
        assert np.array_equal(grid, [truth.W_p(float(t)) for t in ts])

    def test_empty_grid(self):
        assert wingrock_truth().W_p_grid([]).shape == (0, 6, 1)

    def test_modulations_sharing_an_entry(self):
        # Two modulations act on entry (0, 1), at times before and after each switch;
        # the grid (run's input tables) and W_p (one time) apply both.
        mods = (pm.Modulation(row=0, col=1, kind="sin", start=0.0),
                pm.Modulation(row=0, col=1, kind="step", start=2.5),
                pm.Modulation(row=2, col=0, kind="sin", start=7.0))
        truth = pm.UncertaintyTruth(W_p_base=np.random.default_rng(5).standard_normal((6, 2)),
                                    modulations=mods)
        ts = (9.0, 0.0, 3.0, 1.0, 45.0, 2.5, -1.0)
        for t, W in zip(ts, truth.W_p_grid(ts)):
            want = truth.W_p_base.copy()
            want[0, 1] *= math.sin(t) if t >= 2.5 else 0.0
            want[2, 0] *= math.sin(t) if t >= 7.0 else 0.0
            assert np.array_equal(W, want)
            assert np.array_equal(truth.W_p(t), want)

    @pytest.mark.parametrize("mods", [(), (pm.Modulation(row=0, col=0, kind="sin"),)])
    def test_public_W_p_is_a_fresh_array(self, mods):
        truth = pm.UncertaintyTruth(W_p_base=np.ones((2, 1)), modulations=mods)
        truth.W_p(0.5)[:] = 7.0
        assert np.array_equal(truth.W_p_base, np.ones((2, 1)))


class TestAugment:
    def test_wingrock_blocks(self):
        aug = pm.augment(wingrock_plant(), np.array([[1.0, 0.0]]))
        assert np.array_equal(aug.A, [[0, 1, 0], [0, 0, 0], [1, 0, 0]])
        assert np.array_equal(aug.B, [[0.0], [1.0], [0.0]])
        assert np.array_equal(aug.B_r, [[0.0], [0.0], [-1.0]])

    def test_block_readback(self):
        plant = wingrock_plant()
        E_p = np.array([[2.0, -1.0]])
        aug = pm.augment(plant, E_p)
        assert np.array_equal(aug.A[:2, :2], plant.A_p)
        assert np.array_equal(aug.A[2:, :2], E_p)
        assert np.all(aug.A[:2, 2:] == 0.0)
        assert np.array_equal(aug.B[:2], plant.B_p)
        assert np.array_equal(aug.B_r[2:], -np.eye(1))

    def test_stabilization_degenerate_case(self):
        plant = scalar_plant()
        aug = pm.augment(plant, np.zeros((0, 1)))
        assert np.array_equal(aug.A, plant.A_p)
        assert np.array_equal(aug.B, plant.B_p)
        assert aug.B_r.shape == (1, 0)

    def test_bad_ep_shape(self):
        with pytest.raises(DimensionError):
            pm.augment(wingrock_plant(), np.array([[1.0, 0.0, 0.0]]))


class TestAggregateTrueWeights:
    def test_identity_lambda_leaves_gain_block_zero(self):
        W_p = np.array([[1.0], [2.0]])
        K = np.array([[3.0, 4.0, 5.0]])
        W = pm.aggregate_true_weights(pm.UncertaintyTruth(W_p), [1.0], K)
        assert np.allclose(W[:2, 0], [1.0, 2.0])
        assert np.allclose(W[2:, 0], 0.0)

    def test_wingrock_gain_block(self):
        W = pm.aggregate_true_weights(wingrock_truth(alpha1_mod=False), [0.75],
                                      np.array([[2.0, 2.0, 1.0]]))
        assert np.allclose(W[6:, 0], [2.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0])

    def test_zero_truth_identity_lambda(self):
        W = pm.aggregate_true_weights(pm.UncertaintyTruth(np.zeros((2, 1))), [1.0],
                                      np.array([[1.0, 1.0]]))
        assert np.all(W == 0.0)

    def test_singular_lambda(self):
        with pytest.raises(ValueError):
            pm.aggregate_true_weights(pm.UncertaintyTruth(np.zeros((2, 1))), [0.0],
                                      np.array([[1.0, 1.0]]))


class TestPlantModelValidation:
    def test_uncontrollable_rejected(self):
        truth = pm.UncertaintyTruth(W_p_base=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="controllable"):
            pm.PlantModel(A_p=np.zeros((2, 2)), B_p=[[1.0], [0.0]], Lambda=[1.0],
                          truth=truth, basis=pm.BasisSpec(("x1",)))

    def test_nonpositive_lambda_rejected(self):
        for lam in (-0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="Lambda"):
                pm.PlantModel(A_p=[[-1.0]], B_p=[[1.0]], Lambda=[lam],
                              truth=pm.UncertaintyTruth(W_p_base=np.zeros((1, 1))),
                              basis=pm.BasisSpec(("x1",)))

    @pytest.mark.parametrize("A_p, B_p", [([[math.nan]], [[1.0]]), ([[-1.0]], [[math.inf]])])
    def test_nonfinite_matrices_rejected(self, A_p, B_p):
        with pytest.raises(ValueError, match="A_p and B_p must be finite"):
            pm.PlantModel(A_p=A_p, B_p=B_p, Lambda=[1.0],
                          truth=pm.UncertaintyTruth(W_p_base=np.zeros((1, 1))),
                          basis=pm.BasisSpec(("x1",)))

    @pytest.mark.parametrize("A_p, B_p, names, message", [
        ([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], ("bias", "x3"),
         "basis feature 'x3' reads plant state 3, but the plant has 2"),
        ([[-1.0]], [[1.0]], ("x1", "abs_x2_x2"),
         "basis feature 'abs_x2_x2' reads plant state 2, but the plant has 1"),
    ])
    def test_basis_reading_past_the_plant_state_rejected(self, A_p, B_p, names, message):
        # The measured basis is evaluated on the whole augmented state, where
        # such a feature would read the integrator state.
        with pytest.raises(ValueError) as err:
            pm.PlantModel(A_p=A_p, B_p=B_p, Lambda=[1.0], basis=pm.BasisSpec(names),
                          truth=pm.UncertaintyTruth(W_p_base=np.zeros((2, 1))))
        assert str(err.value) == message


class TestClosedLoopConsistency:
    def test_raw_and_aggregated_paths_agree(self):
        # x' from the raw form A x + B(Lam u + W_p' sigma_p) + B_r c must equal
        # the regrouped form A_r x + B_r c + B Lam (u_a + W' sigma) with
        # u = -K x + u_a, for random states and adaptive inputs.
        rng = np.random.default_rng(5)
        plant = wingrock_plant()
        truth = wingrock_truth(alpha1_mod=False)
        E_p = np.array([[1.0, 0.0]])
        aug = pm.augment(plant, E_p)
        K = np.array([[2.0, 2.0, 1.0]])
        A_r = aug.A - aug.B @ K
        lam = plant.Lambda
        W = pm.aggregate_true_weights(truth, lam, K)
        for _ in range(50):
            x = rng.standard_normal(3)
            u_a = rng.standard_normal(1)
            c = rng.standard_normal(1)
            t = float(rng.uniform(0.0, 10.0))
            sigma = np.concatenate([plant.basis.eval_plant(t, x[:2]), x])
            u = -(K @ x) + u_a
            delta = _delta(truth, t, x[:2])
            raw = aug.A @ x + aug.B @ (lam * u + delta) + aug.B_r @ c
            regrouped = A_r @ x + aug.B_r @ c + aug.B @ (lam * (u_a + W.T @ sigma))
            assert np.allclose(raw, regrouped, atol=1e-12)
