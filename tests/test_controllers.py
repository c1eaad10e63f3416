import dataclasses

import numpy as np
import pytest

from flmrac import controllers as ctl
from flmrac.matrixcore import DimensionError, LyapunovPair
from flmrac.simulator import ConfigError, assemble

from helpers import scalar_scenario

SPEC = ctl.ProjectionSpec(theta_max=2.0, eps_theta=0.5)


def _state(system, x=None, x_r=None, W_hat=None):
    """Stacked state with the given blocks and zeros elsewhere."""
    y = np.zeros(system.state_dim)
    for sl, value in ((system.sl_x, x), (system.sl_xr, x_r), (system.sl_W, W_hat)):
        if value is not None:
            y[sl] = np.ravel(value)
    return y


@pytest.fixture(scope="module")
def wingrock_system(wingrock_proposed):
    return assemble(wingrock_proposed)


class TestControlLaw:
    """ClosedLoopSystem.control_at: u = -K x_m - W_hat' sigma(x_m), x_m = x + noise."""

    def test_zero_everything(self, wingrock_system):
        u = wingrock_system.control_at(_state(wingrock_system), None)
        assert np.array_equal(u, [0.0])

    def test_pure_nominal_when_estimate_zero(self, wingrock_system):
        x = np.array([1.0, -2.0, 0.5])
        u = wingrock_system.control_at(_state(wingrock_system, x=x), None)
        assert np.allclose(u, -(wingrock_system.K @ x))

    def test_wingrock_point(self, wingrock_system):
        u = wingrock_system.control_at(_state(wingrock_system, x=[0.1, 0.0, 0.0]), None)
        assert u[0] == pytest.approx(-0.2)

    def test_adaptive_term_sees_measured_state(self, wingrock_system):
        # x_m = (1, 2, 0.5): sigma = (1, 1, 2, 2, 4, 1, 1, 2, 0.5), K x_m = 6.5.
        noise = np.array([0.25, -0.5, 0.125])
        y = _state(wingrock_system, x=np.array([1.0, 2.0, 0.5]) - noise, W_hat=np.ones(9))
        u = wingrock_system.control_at(y, noise)
        assert u[0] == pytest.approx(-6.5 - 14.5, rel=1e-15)

    def test_dimension_mismatch(self, wingrock_proposed):
        # The law's shapes are checked once, where the scenario is built.
        for change, path in ((dict(K=np.array([[2.0, 2.0]])), "controller.K"),
                             (dict(W_hat0=np.zeros((3, 1))), "controller.W_hat0")):
            with pytest.raises(ConfigError) as err:
                dataclasses.replace(wingrock_proposed, controller=dataclasses.replace(
                    wingrock_proposed.controller, **change))
            assert err.value.path == path


class TestPhi:
    def test_at_origin(self):
        assert ctl.phi(np.zeros(3), SPEC) == pytest.approx(-1.0 / SPEC.eps_theta)

    def test_inner_boundary_root(self):
        r = SPEC.theta_max / np.sqrt(SPEC.eps_theta + 1.0)
        assert ctl.phi(np.array([r, 0.0]), SPEC) == pytest.approx(0.0, abs=1e-14)

    def test_outer_boundary_is_one(self):
        assert ctl.phi(np.array([0.0, SPEC.theta_max]), SPEC) == pytest.approx(1.0)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            ctl.ProjectionSpec(theta_max=0.0, eps_theta=0.5)

    # A NaN or infinite ball would switch projection off without a word.
    @pytest.mark.parametrize("theta_max, eps_theta", [
        (np.nan, 0.1), (np.inf, 0.1), (30.0, np.nan), (30.0, np.inf)])
    def test_nonfinite_spec(self, theta_max, eps_theta):
        with pytest.raises(ValueError, match="theta_max and eps_theta must be positive"):
            ctl.ProjectionSpec(theta_max=theta_max, eps_theta=eps_theta)


class TestProj:
    def test_passthrough_inside(self):
        y = np.array([5.0, -1.0])
        assert np.array_equal(ctl.proj(np.array([0.1, 0.1]), y, SPEC), y)

    def test_passthrough_inward_motion(self):
        theta = np.array([SPEC.theta_max, 0.0])
        y = np.array([-3.0, 0.0])  # points inward
        assert np.array_equal(ctl.proj(theta, y, SPEC), y)

    def test_passthrough_orthogonal_on_boundary(self):
        theta = np.array([SPEC.theta_max, 0.0])
        y = np.array([0.0, 4.0])
        assert np.allclose(ctl.proj(theta, y, SPEC), y)

    def test_full_deflection_at_outer_boundary(self):
        # phi = 1 and y = theta: the entire radial component is removed
        theta = SPEC.theta_max * np.array([1.0, 0.0])
        out = ctl.proj(theta, theta.copy(), SPEC)
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_continuity_across_inner_boundary(self):
        direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
        y = 3.0 * direction
        r0 = SPEC.theta_max / np.sqrt(SPEC.eps_theta + 1.0)
        below = ctl.proj((r0 - 1e-9) * direction, y, SPEC)
        above = ctl.proj((r0 + 1e-9) * direction, y, SPEC)
        assert np.max(np.abs(below - above)) <= 1e-8

    def test_remark_inequality_monte_carlo(self):
        # (theta - theta*)'(proj(theta, y) - y) <= 0 whenever theta* lies in
        # the inner ball where phi(theta*) <= 0
        rng = np.random.default_rng(2024)
        r_inner = SPEC.theta_max / np.sqrt(SPEC.eps_theta + 1.0)
        worst = -np.inf
        for _ in range(10_000):
            theta = rng.standard_normal(4) * rng.uniform(0.0, 1.5 * SPEC.theta_max)
            y = rng.standard_normal(4) * 3.0
            star = rng.standard_normal(4)
            star *= rng.uniform(0.0, r_inner) / max(np.linalg.norm(star), 1e-12)
            val = (theta - star) @ (ctl.proj(theta, y, SPEC) - y)
            worst = max(worst, val)
        assert worst <= 1e-12


class TestProjMatrix:
    def test_zero_estimate_passthrough(self):
        Y = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(ctl.proj_matrix(np.zeros((3, 2)), Y, SPEC), Y)

    def test_single_column_matches_vector_form(self):
        rng = np.random.default_rng(9)
        theta = rng.standard_normal(3) * 3.0
        y = rng.standard_normal(3)
        out = ctl.proj_matrix(theta[:, None], y[:, None], SPEC)
        assert np.array_equal(out[:, 0], ctl.proj(theta, y, SPEC))

    def test_trace_inequality_monte_carlo(self):
        rng = np.random.default_rng(77)
        r_inner = SPEC.theta_max / np.sqrt(SPEC.eps_theta + 1.0)
        for _ in range(2000):
            Theta = rng.standard_normal((3, 2)) * 2.0
            Y = rng.standard_normal((3, 2)) * 3.0
            Star = rng.standard_normal((3, 2))
            for j in range(2):
                Star[:, j] *= rng.uniform(0.0, r_inner) / max(np.linalg.norm(Star[:, j]), 1e-12)
            tr = np.trace((Theta - Star).T @ (ctl.proj_matrix(Theta, Y, SPEC) - Y))
            assert tr <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ctl.proj_matrix(np.zeros((3, 2)), np.zeros((2, 3)), SPEC)


def _scalar_lyap():
    return LyapunovPair(R=np.array([[2.0]]), P=np.array([[1.0]]))


def _scalar_system(projection=None, gamma=500.0):
    """scalar_scenario's loop: sigma = (x, x), P B = 1/4."""
    scn = scalar_scenario(gamma=gamma)
    ctrl = dataclasses.replace(scn.controller, projection=projection)
    return assemble(dataclasses.replace(scn, controller=ctrl))


def _w_rate(system, x, x_r, W_hat=None, noise=None):
    """deriv's W_hat block at state (x, x_r, W_hat), shaped like W_hat."""
    y = _state(system, x=[x], x_r=[x_r], W_hat=W_hat)
    dy = system.deriv(system.inputs_at(0.0, noise), y)
    return dy[system.sl_W].reshape(system.s + system.n, system.m)


class TestUpdateDeriv:
    """deriv's W_hat block: gamma sigma(x_m) (x_m - x_r)' P B, projected when configured."""

    def test_zero_error_freezes(self):
        assert np.all(_w_rate(_scalar_system(), 0.7, 0.7, [0.3, -0.2]) == 0.0)

    def test_zero_basis_freezes(self):
        assert np.all(_w_rate(_scalar_system(), 0.0, 1.0, [0.3, -0.2]) == 0.0)

    def test_scalar_product(self):
        system = _scalar_system()
        assert system.PB[0, 0] == pytest.approx(0.25, rel=1e-15)
        assert np.allclose(_w_rate(system, 1.0, 0.0), 125.0, rtol=1e-14, atol=0.0)

    def test_bilinear_without_projection(self):
        # sigma scales with x_m and e with x_m - x_r: (2 sigma, -3 e) gives -6 times the rate.
        system = _scalar_system()
        rng = np.random.default_rng(4)
        x, x_r = rng.standard_normal(2)
        W = rng.standard_normal(2)
        base = _w_rate(system, x, x_r, W)
        scaled = _w_rate(system, 2.0 * x, 2.0 * x + 3.0 * (x - x_r), W)
        assert np.allclose(scaled, -6.0 * base, rtol=1e-12, atol=0.0)

    def test_projection_is_applied(self):
        # Outer boundary (phi = 1), outward drive: no rate along the estimate remains.
        system = _scalar_system(ctl.ProjectionSpec(theta_max=1.0, eps_theta=0.1))
        W = np.array([0.6, 0.8])
        rate = _w_rate(system, 1.0, 0.0, W)[:, 0]
        assert np.all(rate != 125.0)
        assert abs(W @ rate) <= 1e-12 * 125.0


class TestNormContainment:
    def test_integrated_projection_respects_ball(self):
        # Euler-integrate deriv's W_hat block under a deliberately outward
        # drive; columns must never leave theta_max by more than the
        # discretization slack at h = 1e-3.
        spec = ctl.ProjectionSpec(theta_max=1.5, eps_theta=0.2)
        system = _scalar_system(spec, gamma=50.0)
        h = 1e-3
        y = _state(system, x=[1.0], W_hat=[1.2, 0.6])  # admissible start, e = 1
        rng = np.random.default_rng(12)
        for k in range(4000):
            dy = system.deriv(system.inputs_at(0.0, 0.2 * rng.standard_normal(1)), y)
            y[system.sl_W] += h * dy[system.sl_W]
            assert np.linalg.norm(y[system.sl_W]) <= spec.theta_max * (1.0 + 1e-3)
        # The drive reached the boundary layer, where projection acts.
        assert np.linalg.norm(y[system.sl_W]) > spec.theta_max / np.sqrt(1.0 + spec.eps_theta)


class TestControllerConfig:
    def test_rejects_bad_gains(self):
        lyap = _scalar_lyap()
        with pytest.raises(ValueError):
            ctl.ControllerConfig(K=[[1.0]], gamma=0.0, kappa=0.0, eta=0.0, lyap=lyap)
        with pytest.raises(ValueError):
            ctl.ControllerConfig(K=[[1.0]], gamma=1.0, kappa=-1.0, eta=0.0, lyap=lyap)

    def test_rejects_initial_estimate_outside_ball(self):
        spec = ctl.ProjectionSpec(theta_max=1.0, eps_theta=0.1)
        with pytest.raises(ValueError):
            ctl.ControllerConfig(K=[[1.0]], gamma=1.0, kappa=0.0, eta=0.0,
                                 lyap=_scalar_lyap(), projection=spec,
                                 W_hat0=np.array([[2.0], [0.0]]))
