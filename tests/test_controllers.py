import numpy as np
import pytest

from flmrac import controllers as ctl
from flmrac.matrixcore import DimensionError, LyapunovPair

SPEC = ctl.ProjectionSpec(theta_max=2.0, eps_theta=0.5)


class TestControlLaw:
    def test_zero_everything(self):
        u = ctl.control(np.zeros(3), np.zeros(4), np.zeros((4, 1)),
                        np.array([[1.0, 2.0, 3.0]]))
        assert np.array_equal(u, [0.0])

    def test_pure_nominal_when_estimate_zero(self):
        x = np.array([1.0, -2.0, 0.5])
        K = np.array([[2.0, 2.0, 1.0]])
        u = ctl.control(x, np.zeros(9), np.zeros((9, 1)), K)
        assert np.allclose(u, -(K @ x))

    def test_wingrock_point(self):
        u = ctl.control(np.array([0.1, 0.0, 0.0]), np.zeros(9), np.zeros((9, 1)),
                        np.array([[2.0, 2.0, 1.0]]))
        assert u[0] == pytest.approx(-0.2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            ctl.control(np.zeros(2), np.zeros(3), np.zeros((3, 1)),
                        np.array([[1.0, 2.0, 3.0]]))


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


class TestUpdateDeriv:
    def test_zero_error_freezes(self):
        out = ctl.update_deriv(np.zeros((2, 1)), np.array([1.0, 1.0]), np.zeros(1),
                               _scalar_lyap(), np.array([[1.0]]), 500.0)
        assert np.all(out == 0.0)

    def test_zero_basis_freezes(self):
        out = ctl.update_deriv(np.zeros((2, 1)), np.zeros(2), np.array([1.0]),
                               _scalar_lyap(), np.array([[1.0]]), 500.0)
        assert np.all(out == 0.0)

    def test_scalar_product(self):
        out = ctl.update_deriv(np.zeros((1, 1)), np.array([1.0]), np.array([1.0]),
                               LyapunovPair(R=np.array([[2.0]]), P=np.array([[1.0]])),
                               np.array([[1.0]]), 500.0)
        assert out[0, 0] == pytest.approx(500.0)

    def test_bilinear_without_projection(self):
        rng = np.random.default_rng(4)
        lyap = LyapunovPair(R=np.eye(2), P=np.array([[2.0, 0.5], [0.5, 1.0]]))
        B = rng.standard_normal((2, 1))
        sigma = rng.standard_normal(3)
        e = rng.standard_normal(2)
        W = np.zeros((3, 1))
        base = ctl.update_deriv(W, sigma, e, lyap, B, 10.0)
        scaled = ctl.update_deriv(W, 2.0 * sigma, -3.0 * e, lyap, B, 10.0)
        assert np.allclose(scaled, -6.0 * base, rtol=1e-12)

    def test_projection_is_applied(self):
        spec = ctl.ProjectionSpec(theta_max=1.0, eps_theta=0.1)
        W = np.array([[1.0]])  # on the outer boundary
        out = ctl.update_deriv(W, np.array([1.0]), np.array([1.0]), _scalar_lyap(),
                               np.array([[1.0]]), 100.0, projection=spec)
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)


class TestNormContainment:
    def test_integrated_projection_respects_ball(self):
        # Euler-integrate a deliberately outward drive; columns must never
        # leave theta_max by more than the discretization slack at h = 1e-3.
        spec = ctl.ProjectionSpec(theta_max=1.5, eps_theta=0.2)
        lyap = _scalar_lyap()
        B = np.array([[1.0]])
        h = 1e-3
        W = np.array([[1.2], [0.6]])  # admissible start
        rng = np.random.default_rng(12)
        for k in range(4000):
            sigma = W[:, 0] / np.linalg.norm(W[:, 0]) + 0.2 * rng.standard_normal(2)
            e = np.array([1.0])
            dW = ctl.update_deriv(W, sigma, e, lyap, B, 50.0, projection=spec)
            W = W + h * dW
            assert np.linalg.norm(W[:, 0]) <= spec.theta_max * (1.0 + 1e-3)


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
