import dataclasses

import numpy as np
import pytest
import scipy.linalg

from flmrac import analysis
from flmrac import matrixcore as mc

from helpers import random_hurwitz, random_spd

WINGROCK_AR = np.array([[0.0, 1.0, 0.0], [-2.0, -2.0, -1.0], [1.0, 0.0, 0.0]])


class TestIsHurwitz:
    def test_negative_identity(self):
        assert mc.is_hurwitz(-np.eye(2))

    def test_double_integrator_is_not(self):
        assert not mc.is_hurwitz(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_wingrock_closed_loop(self):
        # eigenvalues -1 and -1/2 +- j sqrt(3)/2, checked independently
        roots = np.roots([1.0, 2.0, 2.0, 1.0])
        assert np.all(roots.real < 0)
        assert mc.is_hurwitz(WINGROCK_AR)

    def test_marginal_eigenvalue_rejected(self):
        assert not mc.is_hurwitz(np.array([[0.0]]))

    def test_non_square_raises(self):
        with pytest.raises(mc.DimensionError):
            mc.is_hurwitz(np.zeros((2, 3)))


class TestSolveLyapunov:
    def test_scalar_inverse(self):
        # alpha = 1, R = 2 gives P = 1/alpha exactly
        P = mc.solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
        assert abs(P[0, 0] - 1.0) <= 1e-12

    def test_diagonal_balance(self):
        P = mc.solve_lyapunov(-np.eye(2), 2.0 * np.eye(2))
        assert np.allclose(P, np.eye(2), atol=1e-12)

    def test_wingrock_residual_and_spd(self):
        R = np.eye(3)
        P = mc.solve_lyapunov(WINGROCK_AR, R)
        res = np.linalg.norm(WINGROCK_AR.T @ P + P @ WINGROCK_AR + R)
        assert res <= 1e-10 * np.linalg.norm(R)
        assert np.array_equal(P, P.T)
        assert mc.sym_eig_extremes(P)[0] > 0

    def test_matches_bartels_stewart(self):
        rng = np.random.default_rng(7)
        A = random_hurwitz(rng, 5)
        R = random_spd(rng, 5)
        P = mc.solve_lyapunov(A, R)
        P_ref = scipy.linalg.solve_continuous_lyapunov(A.T, -R)
        assert np.allclose(P, P_ref, rtol=1e-8, atol=1e-10)

    def test_random_batch_residuals(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            A = random_hurwitz(rng, n)
            R = random_spd(rng, n)
            P = mc.solve_lyapunov(A, R)
            res = np.linalg.norm(A.T @ P + P @ A + R)
            assert res <= 1e-10 * np.linalg.norm(R)
            assert np.array_equal(P, P.T)
            assert mc.sym_eig_extremes(P)[0] > 0

    def test_not_hurwitz_raises(self):
        with pytest.raises(mc.NotHurwitzError):
            mc.solve_lyapunov(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_not_spd_raises(self):
        with pytest.raises(mc.NotSPDError):
            mc.solve_lyapunov(-np.eye(2), -np.eye(2))
        with pytest.raises(mc.NotSPDError):
            mc.solve_lyapunov(-np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSymEigExtremes:
    def test_diagonal(self):
        assert mc.sym_eig_extremes(np.diag([1.0, 4.0])) == (1.0, 4.0)

    def test_identity(self):
        lo, hi = mc.sym_eig_extremes(np.eye(3))
        assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)

    def test_wingrock_p_against_cubic_roots(self):
        from oracles import cubic_symmetric_eigs

        P = mc.solve_lyapunov(WINGROCK_AR, np.eye(3))
        lo, hi = mc.sym_eig_extremes(P)
        roots = cubic_symmetric_eigs(P)
        assert lo == pytest.approx(roots[0], rel=1e-9)
        assert hi == pytest.approx(roots[-1], rel=1e-9)

    def test_rayleigh_quotient_bracketing(self):
        rng = np.random.default_rng(3)
        S = random_spd(rng, 4) - 2.0 * np.eye(4)
        lo, hi = mc.sym_eig_extremes(S)
        for _ in range(100):
            v = rng.standard_normal(4)
            v /= np.linalg.norm(v)
            q = v @ S @ v
            assert lo - 1e-12 <= q <= hi + 1e-12

    def test_asymmetric_raises(self):
        with pytest.raises(ValueError):
            mc.sym_eig_extremes(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestLyapunovPair:
    def test_for_closed_loop_and_extremes(self):
        pair = mc.LyapunovPair.for_closed_loop(WINGROCK_AR, np.eye(3))
        assert pair.residual(WINGROCK_AR) <= 1e-10 * np.sqrt(3.0)
        ex = pair.extremes()
        assert 0 < ex["lam_min_P"] < ex["lam_max_P"]
        assert ex["lam_min_R"] == pytest.approx(1.0)

    def test_extremes_solved_once_per_pair(self, monkeypatch):
        calls = []
        solve = mc.sym_eig_extremes
        monkeypatch.setattr(mc, "sym_eig_extremes", lambda S: calls.append(S) or solve(S))
        pair = mc.LyapunovPair.for_closed_loop(WINGROCK_AR, np.eye(3))
        for _ in range(100):
            pair.extremes()
            analysis.bound_modified_transient(100.0, 50.0, 0.5, pair, np.ones((3, 1)), [0.75],
                                              np.zeros(3))
        assert len(calls) == 2

    def test_extremes_returns_a_copy(self):
        pair = mc.LyapunovPair.for_closed_loop(WINGROCK_AR, np.eye(3))
        expected = pair.extremes()
        pair.extremes()["lam_min_P"] = -1.0
        assert pair.extremes() == expected

    def test_replaced_pair_has_its_own_extremes(self):
        pair = mc.LyapunovPair.for_closed_loop(WINGROCK_AR, np.eye(3))
        pair.extremes()
        other = dataclasses.replace(pair, P=4.0 * pair.P)
        pmin, pmax = mc.sym_eig_extremes(4.0 * pair.P)
        assert (other.extremes()["lam_min_P"], other.extremes()["lam_max_P"]) == (pmin, pmax)

    def test_non_symmetric_P_raises_on_every_call(self):
        pair = mc.LyapunovPair(R=np.eye(2), P=np.array([[1.0, 2.0], [0.0, 1.0]]))
        for _ in range(2):
            with pytest.raises(ValueError, match="not symmetric"):
                pair.extremes()
