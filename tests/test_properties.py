"""Property tests: projection invariants over random shapes, the config
serialize -> parse -> serialize round trip, the recorded identities of
short random runs, deriv's guarded projection, output buffer and one-pass
control and run's input-table rows against their definitions, every block
of deriv against the from-scratch oracle at a measured error far below the
state, the built basis function against its per-feature callables, the
truth's derived norm budget against its norm at every time of a grid, the
closed-form loop margins and the shortened xi search against the searches
they replaced, and the scalar loop's linearized closed loop against its loop
transfer function and, with a delayed control, against its delay margin."""

import cmath
import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flmrac import analysis
from flmrac import controllers as ctl
from flmrac.matrixcore import LyapunovPair
from flmrac.plantmodel import (FEATURE_EXPRESSIONS, BasisSpec, Modulation, PlantModel,
                               UncertaintyTruth, aggregate_true_weights)
from flmrac.simcli import dict_to_scenario, load_config, serialize_scenario
from flmrac.simulator import (CommandSpec, NoiseSpec, ScenarioConfig, assemble, rk4_step,
                              run)

from helpers import assert_csv_errors_exact, input_row, oracle_for, scalar_loop_scenario
from oracles import (loop_transfer_rational, margins_by_search, optimal_xi_by_search,
                     resolve_feature, truth_at)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
SUBNORMAL = float(np.finfo(float).smallest_subnormal)
EPS, TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)


def _column(draw, s, radius):
    """An s-vector of the given norm (zero if the drawn direction is zero)."""
    v = np.array(draw(st.lists(finite, min_size=s, max_size=s)))
    norm = float(np.linalg.norm(v))
    return v * (radius / norm) if norm > 0.0 else v


@st.composite
def projection_case(draw):
    s = draw(st.integers(1, 8))
    m = draw(st.integers(1, 3))
    spec = ctl.ProjectionSpec(theta_max=draw(st.floats(0.1, 10.0)),
                              eps_theta=draw(st.floats(0.01, 2.0)))
    inner = spec.theta_max / np.sqrt(spec.eps_theta + 1.0)
    # Radii span the interior, the boundary layer and beyond theta_max.
    Theta = np.column_stack([
        _column(draw, s, draw(st.floats(0.0, 1.2)) * spec.theta_max) for _ in range(m)])
    Y = np.array(draw(st.lists(finite, min_size=s * m, max_size=s * m))).reshape(s, m)
    theta_star = _column(draw, s, draw(st.floats(0.0, 1.0)) * inner)
    return spec, Theta, Y, theta_star


# theta on the outer boundary and Y near 1e-310: g'o misses (1 - f) g'y by 9.1e-319,
# above the relative bound's 2.8e-319 and within the subnormal floor.
@example(case=(ctl.ProjectionSpec(theta_max=0.2, eps_theta=0.01), np.array([[-0.2]]),
               np.array([[-1.4e-310]]), np.zeros(1)))
@settings(deadline=None, max_examples=300)
@given(projection_case())
def test_proj_matrix_invariants(case):
    spec, Theta, Y, theta_star = case
    out = ctl.proj_matrix(Theta, Y, spec)
    assert out.shape == Y.shape
    for j in range(Y.shape[1]):
        theta, y, o = Theta[:, j], Y[:, j], out[:, j]
        f = ctl.phi(theta, spec)
        g = ctl.phi_grad(theta, spec)
        gy = float(g.dot(y))
        if f < 0.0 or gy <= 0.0:
            assert np.array_equal(o, y)
            continue
        # Rounding slack from 1-norms: squaring tiny entries would underflow.
        scale = _l1(g) * _l1(y) * (1.0 + abs(f))
        # Below the normal range each rounding errs by up to one subnormal unit, and
        # the quotient g'y / g'g carries its error into o along g: hence the g'g term.
        floor = 2.0 * SUBNORMAL * (1.0 + abs(f)) * (y.size + _l1(g) + float(g.dot(g)))
        assert abs(float(g.dot(o)) - (1.0 - f) * gy) <= 1e-12 * scale + floor
        # The correction never points away from any estimate in the inner ball.
        if ctl.phi(theta_star, spec) <= 0.0:
            d = theta - theta_star
            assert float(d.dot(o - y)) <= 1e-12 * _l1(d) * (_l1(y) + _l1(o - y))


def _l1(v) -> float:
    return float(np.sum(np.abs(v)))


_PROPOSED, _BUNDLED = load_config("wingrock_proposed")


@settings(deadline=None, max_examples=100)
@given(gamma=st.floats(1e-3, 1e6), kappa=st.floats(0.0, 1e4), eta=st.floats(0.0, 1e4),
       seed=st.integers(0, 2**63 - 1), h=st.floats(1e-6, 0.1),
       steps=st.integers(1, 10**6), record_stride=st.integers(1, 1000))
def test_config_round_trip(gamma, kappa, eta, seed, h, steps, record_stride):
    raw = json.loads(json.dumps(_BUNDLED))
    raw["controller"].update(gamma=gamma, kappa=kappa, eta=eta)
    raw["noise"]["seed"] = seed
    raw.update(h=h, t_final=h * steps, record_stride=record_stride)
    text = serialize_scenario(dict_to_scenario(raw))
    assert serialize_scenario(dict_to_scenario(json.loads(text))) == text
    parsed = json.loads(text)
    assert (parsed["controller"]["gamma"], parsed["controller"]["kappa"],
            parsed["controller"]["eta"], parsed["noise"]["seed"], parsed["h"],
            parsed["t_final"], parsed["record_stride"]) == (
        gamma, kappa, eta, seed, h, raw["t_final"], record_stride)


magnitude = st.one_of(st.just(0.0), st.floats(1e-300, 1e300))


@settings(deadline=None, max_examples=200)
@given(data=st.data(), s=st.integers(1, 12), m=st.integers(1, 3),
       fortran=st.booleans())
def test_weighted_fro_matches_numpy_norm(data, s, m, fortran):
    signed = st.builds(lambda v, neg: -v if neg else v, magnitude, st.booleans())
    W = np.array(data.draw(st.lists(signed, min_size=s * m, max_size=s * m))).reshape(s, m)
    if fortran:
        W = np.asfortranarray(W)
    lam = np.array(data.draw(st.lists(magnitude, min_size=m, max_size=m)))
    with np.errstate(over="ignore"):
        x = W * np.sqrt(lam)[np.newaxis, :]
        expected = float(np.linalg.norm(x))
    # Outside errstate: a RuntimeWarning from _weighted_fro fails the test.
    got = analysis._weighted_fro(W, lam)
    if expected < math.inf:
        assert got == expected
    else:
        # numpy's sum of squares overflows: the norm is finite unless an entry overflowed.
        assert got == pytest.approx(math.hypot(*x.ravel()), rel=1e-14, abs=0.0)
    # A negative, infinite or NaN entry: with W = 0, an infinite one would give 0 * inf.
    lam[data.draw(st.integers(0, m - 1))] = data.draw(
        st.one_of(st.floats(-1e150, -1e-150), st.sampled_from([math.inf, math.nan])))
    with pytest.raises(ValueError, match="nonnegative"):
        analysis._weighted_fro(W, lam)


# Bounds of xi in (0, 1) from (p, s, o) in [0, 1] x [-100, 100] x [-10, 10]: monotone,
# with an interior minimum or maximum, piecewise constant, kinked and oscillating.
XI_FAMILIES = {
    "power": lambda p, s, o: lambda x: o + s * x ** (4.0 * p - 2.0),
    "parabola": lambda p, s, o: lambda x: o + s * (x - p) ** 2,
    "floor": lambda p, s, o: lambda x: o + math.floor(s * (x - p)),
    "abs": lambda p, s, o: lambda x: o + s * abs(x - p),
    "sin": lambda p, s, o: lambda x: o + math.sin(s * x + p),
}


@settings(deadline=None, max_examples=500)
@given(family=st.sampled_from(sorted(XI_FAMILIES)), p=st.floats(0.0, 1.0),
       s=st.floats(-100.0, 100.0), o=st.floats(-10.0, 10.0))
def test_optimal_xi_equals_the_200_step_search(family, p, s, o):
    f = XI_FAMILIES[family](p, s, o)
    assert analysis.optimal_xi(f) == optimal_xi_by_search(f)


@st.composite
def modulated_truth(draw):
    """A random truth of up to 4 x 2 weights with up to five step and sin
    modulations, several of them often on one entry."""
    s, m = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    base = np.array(draw(st.lists(finite, min_size=s * m, max_size=s * m))).reshape(s, m)
    mods = draw(st.lists(st.builds(Modulation, row=st.integers(0, s - 1),
                                   col=st.integers(0, m - 1),
                                   kind=st.sampled_from(["step", "sin"]),
                                   start=st.floats(0.0, 5.0)), max_size=5))
    return UncertaintyTruth(W_p_base=base, modulations=mods)


# Two sin modulations of one entry: 2 sin(t)^2 moves at rate |2 sin 2t| <= 2 < 2 sqrt(2).
@example(truth=UncertaintyTruth(W_p_base=np.array([[2.0]]), modulations=(
    Modulation(row=0, col=0, kind="sin"), Modulation(row=0, col=0, kind="sin", start=1.0))))
@settings(deadline=None, max_examples=100)
@given(modulated_truth())
def test_truth_rate_bound_is_the_sup_of_the_rate(truth):
    bound = truth.w_p_dot_max
    ts = np.linspace(0.0, 8.0, 4001)
    W, dt = truth.W_p_grid(ts), np.diff(ts)
    # A difference quotient is the mean rate over its interval, unless a switch lies inside.
    smooth = np.ones(dt.size, dtype=bool)
    for mod in truth.modulations:
        smooth &= ~((ts[:-1] < mod.start) & (mod.start <= ts[1:]))
    rates = np.linalg.norm(np.diff(W, axis=0), axis=(1, 2))[smooth] / dt[smooth]
    assert np.all(rates <= bound + 1e-9 * (1.0 + bound))
    sines = [(mod.row, mod.col) for mod in truth.modulations if mod.kind == "sin"]
    if len(set(sines)) == len(sines):
        # Attained where every cos t is 1, at t = 2 pi k past every start.
        t = 2.0 * math.pi * (math.floor(max([0.0] + [mod.start for mod in truth.modulations])
                                        / (2.0 * math.pi)) + 2)
        d = 1e-4
        rate = np.linalg.norm(truth.W_p(t + d) - truth.W_p(t - d)) / (2.0 * d)
        assert rate == pytest.approx(bound, rel=1e-8, abs=1e-12)


@st.composite
def aggregated_truth_case(draw):
    """A modulated truth with random Lambda, K (m x n, n up to 3) and theta_max."""
    truth = draw(modulated_truth())
    m, n = truth.W_p_base.shape[1], draw(st.integers(1, 3))
    lam = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m)))
    K = np.array(draw(st.lists(finite, min_size=m * n, max_size=m * n))).reshape(m, n)
    return truth, lam, K, draw(st.floats(0.0, 10.0))


# A step and a sin modulation of one entry, and a sin modulation of another.
@example(case=(UncertaintyTruth(W_p_base=np.arange(1.0, 7.0).reshape(3, 2), modulations=(
    Modulation(row=0, col=1, kind="sin"), Modulation(row=0, col=1, kind="step", start=2.5),
    Modulation(row=2, col=0, kind="sin", start=7.0))), np.array([0.7, 1.3]),
    np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]]), 2.0))
@settings(deadline=None, max_examples=50)
@given(aggregated_truth_case())
def test_truth_norm_budget_is_the_sup_of_the_norm(case):
    truth, lam, K, theta_max = case
    w_tilde_max, _ = analysis.aggregated_truth_bounds(truth, lam, K, theta_max)
    budget = w_tilde_max - theta_max * math.sqrt(lam.size)
    # The subtraction above rounds by at most a few ulps of w_tilde_max.
    tol = 4.0 * EPS * w_tilde_max
    ts = np.linspace(0.0, 12.5, 1001)  # past every start (at most 5) by 2 pi
    norms = [np.linalg.norm(aggregate_true_weights(truth, lam, K, t=float(t))) for t in ts]
    assert max(norms) <= budget + tol
    # Attained where every factor is 1, at t = pi/2 + 2 pi k past the last start.
    last = max([0.0] + [mod.start for mod in truth.modulations])
    t = math.pi / 2.0 + 2.0 * math.pi * (math.floor(last / (2.0 * math.pi)) + 1)
    assert np.linalg.norm(aggregate_true_weights(truth, lam, K, t=t)) == pytest.approx(
        budget, rel=1e-12, abs=tol)


@st.composite
def short_run(draw):
    """Bundled wingrock_proposed cut to at most 100 steps, noisy from t = 0,
    with random gains, seed, stride and initial state; projected runs start
    Ŵ in or near the projection's boundary layer so that it acts."""
    ctrl = _PROPOSED.controller
    projection, W_hat0 = None, None
    if draw(st.booleans()):
        projection = ctl.ProjectionSpec(theta_max=draw(st.floats(0.5, 5.0)),
                                        eps_theta=draw(st.floats(0.05, 1.0)))
        rows = ctrl.K.shape[1] + _PROPOSED.plant.basis.dim
        W_hat0 = _column(draw, rows, draw(st.floats(0.5, 0.999)) * projection.theta_max)
        W_hat0 = W_hat0.reshape(rows, 1)
    controller = dataclasses.replace(
        ctrl, gamma=draw(st.floats(1.0, 2000.0)), kappa=draw(st.floats(0.0, 200.0)),
        eta=draw(st.floats(0.0, 20.0)), projection=projection, W_hat0=W_hat0)
    noise = dataclasses.replace(_PROPOSED.noise, start_time=0.0, std=(0.01, 0.01, 0.0),
                                seed=draw(st.integers(0, 2**32 - 1)))
    x0 = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3)))
    return dataclasses.replace(_PROPOSED, controller=controller, noise=noise, x0=x0,
                               t_final=draw(st.integers(1, 100)) * _PROPOSED.h,
                               record_stride=draw(st.integers(1, 7)))


@settings(deadline=None, max_examples=100)
@given(short_run())
def test_run_identities_and_projection(scn):
    traj = run(scn)
    assert len(traj) == scn.samples
    with tempfile.TemporaryDirectory() as tmp:
        assert_csv_errors_exact(traj, Path(tmp) / "run.csv")
    if scn.controller.projection is not None:
        col_norms = np.linalg.norm(traj.W_hat, axis=1)
        assert np.all(col_norms <= scn.controller.projection.theta_max)


_NOISY_FROM_ZERO = dataclasses.replace(
    _PROPOSED, noise=dataclasses.replace(_PROPOSED.noise, start_time=0.0))


@settings(deadline=None, max_examples=60)
@given(steps=st.integers(0, 40), stride=st.integers(1, 12))
@example(steps=0, stride=3)
@example(steps=12, stride=4)
@example(steps=13, stride=4)
def test_run_records_each_stride_and_the_end(steps, stride):
    h = _PROPOSED.h
    dense = run(dataclasses.replace(_NOISY_FROM_ZERO, t_final=steps * h, record_stride=1))
    traj = run(dataclasses.replace(_NOISY_FROM_ZERO, t_final=steps * h, record_stride=stride))
    assert traj.t.tolist() == [k * h for k in range(0, steps, stride)] + [steps * h]
    # The recorded rows are the stride-1 run's: recording never moves the noise stream.
    rows = [*range(0, steps, stride), steps]
    for name in ("x", "x_r", "x_ri", "e_L", "u", "W_hat", "c"):
        assert np.array_equal(getattr(traj, name), getattr(dense, name)[rows]), name


@settings(deadline=None, max_examples=200)
@given(gamma=st.floats(1e-2, 1e4), kappa=st.floats(0.0, 1e3), eta=st.floats(0.0, 1e3),
       alpha=st.floats(1e-2, 10.0))
def test_margins_match_crossover_search(gamma, kappa, eta, alpha):
    reference = margins_by_search(gamma, kappa, eta, alpha)
    if reference is None:
        with pytest.raises(analysis.NoCrossoverError):
            analysis.margins(gamma, kappa, eta, alpha)
        return
    rep = analysis.margins(gamma, kappa, eta, alpha)
    got = (rep.gain_crossover, rep.phase_margin, rep.delay_margin)
    assert got == pytest.approx(reference, rel=1e-12, abs=0.0)
    assert abs(loop_transfer_rational(gamma, kappa, eta, alpha, rep.gain_crossover)) == \
        pytest.approx(1.0, rel=0.0, abs=1e-12)


def _central_jacobian(system, y, step=1e-6):
    """Central-difference Jacobian of deriv at y."""
    J, row = np.empty((y.size, y.size)), input_row(system, 0.0)
    for i in range(y.size):
        d = np.zeros(y.size)
        d[i] = step
        J[:, i] = (system.deriv(row, y + d) - system.deriv(row, y - d)) / (2.0 * step)
    return J


@example(gamma=1.0, kappa=1.0, eta=0.0, alpha=1.0)  # (s + 1)^3 (s + 1)^2 s: a 5-fold pole
@settings(deadline=None, max_examples=200)
@given(gamma=st.floats(1.0, 500.0),
       kappa=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
       eta=st.one_of(st.sampled_from([0.0, 1e-8]), st.floats(0.0, 20.0)),
       alpha=st.floats(0.5, 5.0))
def test_scalar_loop_eigenvalues_are_loop_transfer_poles(gamma, kappa, eta, alpha):
    # Linearized at its equilibrium, the closed loop that run integrates has
    # the roots of 1 + G(s) = 0, i.e. of s(s + a)(s + a + kappa + eta)
    # + gamma a (s + a + eta) for a = alpha, plus -alpha (x_r), -alpha (x_ri)
    # and 0 (the x row of W_hat, whose update is second order).  Multiple
    # roots occur (eta = 0 gives a triple -alpha), and a Jordan block moves
    # an eigenvalue by the cube root of its perturbation, so the eigenvalues
    # are compared through their characteristic polynomial, whose
    # coefficients a perturbation moves by only its own size.
    system = assemble(scalar_loop_scenario(gamma, kappa, eta, alpha, a=0.3, w=0.7))
    y = np.zeros(system.state_dim)
    y[system.sl_W] = [0.7, 0.0]
    assert np.array_equal(system.deriv(input_row(system, 0.0), y), np.zeros_like(y))
    got = np.poly(np.linalg.eigvals(_central_jacobian(system, y))).real
    loop = [1.0, 2.0 * alpha + kappa + eta, alpha * (alpha + kappa + eta) + gamma * alpha,
            gamma * alpha * (alpha + eta)]
    want = np.polymul(loop, [1.0, 2.0 * alpha, alpha**2, 0.0])
    # |c_k| <= C(6, k) r^k for roots no larger than r.
    r = float(np.max(np.abs(np.roots(want))))
    scale = [math.comb(6, k) * r**k for k in range(7)]
    assert np.all(np.abs(got - want) <= 1e-8 * np.array(scale))


DELAY_GAINS = (100.0, 50.0, 10.0, 1.0)  # (gamma, kappa, eta, alpha): delay margin 0.1224 s


def _bias_error_with_delayed_control(scn, tau_steps: int, t_final=10.0):
    """|W_hat_bias - w| per step of the scalar loop scn integrated by RK4, with
    the control seeing W_hat delayed by tau_steps steps (linearly interpolated
    at the RK4 stages); without projection the update law does not read W_hat."""
    system = assemble(scn)
    h, w = scn.h, float(scn.plant.truth.W_p_base[0, 0])
    y = np.zeros(system.state_dim)
    y[system.sl_W] = [w + 1e-3, 0.0]
    history = [y[system.sl_W].copy()]  # W_hat at steps 0, 1, ...; constant before 0
    for k in range(round(t_final / h)):
        t = k * h
        old, new = history[max(k - tau_steps, 0)], history[max(k - tau_steps + 1, 0)]

        def f(row, yy, out):
            tt, inputs = row
            lagged = yy.copy()
            lagged[system.sl_W] = old + (new - old) * ((tt - t) / h)
            return system.deriv(inputs, lagged, out=out)

        y = rk4_step(f, y, [(tt, input_row(system, tt)) for tt in (t, t + 0.5 * h, t + h)], h)
        history.append(y[system.sl_W].copy())
    return np.abs(np.array(history)[:, 0] - w)


def _rightmost_delayed_root(tau: float, s: complex) -> complex:
    """Newton's method from s on s(s + a)(s + a + kappa + eta)
    + gamma a (s + a + eta) e^(-s tau) = 0, the scalar loop's 1 + G(s) e^(-s tau)."""
    gamma, kappa, eta, a = DELAY_GAINS
    for _ in range(50):
        lag = cmath.exp(-s * tau)
        f = s * (s + a) * (s + a + kappa + eta) + gamma * a * (s + a + eta) * lag
        df = (3.0 * s * s + 2.0 * (2.0 * a + kappa + eta) * s + a * (a + kappa + eta)
              + gamma * a * lag * (1.0 - tau * (s + a + eta)))
        s -= f / df
    assert abs(f) <= 1e-9 * abs(gamma * a * (s + a + eta))
    return s


@pytest.mark.parametrize("factor", [0.8, 1.2])
def test_delay_margin_brackets_simulated_stability(factor):
    # With its control delayed by less than margins' delay margin the simulated
    # loop decays, and with more it grows, at the rate of the delayed loop's
    # rightmost root (about -0.25 and +0.23 1/s here).
    rep = analysis.margins(*DELAY_GAINS)
    assert rep.delay_margin == pytest.approx(0.1224, abs=1e-4)
    scn = scalar_loop_scenario(*DELAY_GAINS)  # h = 1e-3: a delay of 98 or 147 steps
    h = scn.h
    tau_steps = round(factor * rep.delay_margin / h)
    err = _bias_error_with_delayed_control(scn, tau_steps)
    root = _rightmost_delayed_root(tau_steps * h, 1j * rep.gain_crossover)
    # The envelope: the peak error of each 1 s window after a 2 s start-up.
    window = round(1.0 / h)
    starts = range(round(2.0 / h), err.size - window + 1, window)
    peaks = [err[i:i + window].max() for i in starts]
    rate = np.polyfit([(i + window / 2) * h for i in starts], np.log(peaks), 1)[0]
    assert (peaks[-1] > err[0]) == (factor > 1.0) == (root.real > 0.0)
    assert rate == pytest.approx(root.real, rel=0.25)


def _two_input_scenario() -> ScenarioConfig:
    """A projected double integrator with two inputs, so W_hat has two columns."""
    plant = PlantModel(A_p=[[0.0, 1.0], [0.0, 0.0]], B_p=np.eye(2), Lambda=[1.0, 0.5],
                       truth=UncertaintyTruth(W_p_base=np.zeros((2, 2))),
                       basis=BasisSpec(("bias", "abs_x1_x2")))
    K = np.array([[1.0, 1.0], [0.0, 1.0]])  # A - B K = -I
    ctrl = ctl.ControllerConfig(
        K=K, gamma=50.0, kappa=10.0, eta=2.0,
        lyap=LyapunovPair.for_closed_loop(-np.eye(2), np.eye(2)),
        projection=ctl.ProjectionSpec(theta_max=2.0, eps_theta=0.3))
    return ScenarioConfig(plant=plant, E_p=np.zeros((0, 2)), controller=ctrl,
                          command=CommandSpec(kind="zero"), noise=NoiseSpec(),
                          t_final=1.0, h=1e-3, name="two_input")


_PROJECTED_SYSTEMS = (assemble(_PROPOSED), assemble(_two_input_scenario()))
#: Each projected system's law with projection off.
_UNPROJECTED = {system: assemble(dataclasses.replace(
    system.scenario, controller=dataclasses.replace(system.scenario.controller, projection=None)))
    for system in _PROJECTED_SYSTEMS}


def _two_input_case(*columns):
    """A quiet two-input case whose W_hat has the given columns; x - x_r != 0."""
    z = [0.5, -0.5, 0.1, 0.2, 0.0, 0.0, 0.05, -0.05]
    return _PROJECTED_SYSTEMS[1], 1.0, np.concatenate([z, np.column_stack(columns).ravel()]), None


#: x - x_r = [0, 0, 1.33e-277] next to x = [1, 0, 1.33e-277], quiet: an update
#: law that sums gamma (P B)' x and -gamma (P B)' x_r loses all of it.
_CANCELLING_CASE = (_PROJECTED_SYSTEMS[0], 0.0, np.concatenate(
    [[1.0, 0.0, 1.33e-277, 1.0], np.zeros(_PROJECTED_SYSTEMS[0].state_dim - 4)]), None)


@st.composite
def projected_state(draw):
    """(system, t, y, noise or None) with each column of W_hat inside the inner
    ball, in the boundary layer or on theta_max."""
    system = draw(st.sampled_from(_PROJECTED_SYSTEMS))
    spec, n = system.projection, system.n
    inner = spec.theta_max / math.sqrt(1.0 + spec.eps_theta)
    radius = st.one_of(st.floats(0.0, 0.999 * inner), st.floats(inner, spec.theta_max),
                       st.just(spec.theta_max))
    W_hat = np.column_stack([_column(draw, system.s + n, draw(radius))
                             for _ in range(system.m)])
    z = draw(st.lists(st.floats(-2.0, 2.0), min_size=4 * n, max_size=4 * n))
    noise = draw(st.none() | st.lists(st.floats(-0.1, 0.1), min_size=n, max_size=n))
    y = np.concatenate([z, W_hat.ravel()])
    return system, draw(st.floats(0.0, 90.0)), y, None if noise is None else np.array(noise)


@settings(deadline=None, max_examples=200)
@given(projected_state())
# ||W_hat||_F^2 passes the pre-test, but both columns lie inside the inner ball.
@example(_two_input_case([1.5, 0.0, 0.0, 0.0], [0.0, 0.0, 1.5, 0.0]))
# One column in the boundary layer, pushed outward; the other zero.
@example(_two_input_case([1.9, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]))
@example(_CANCELLING_CASE)
def test_guarded_projection_equals_proj_matrix(case):
    # deriv calls proj_matrix only near the ball; its W block is still
    # gamma proj(W_hat, sigma e' P B) everywhere.
    system, t, y, noise = case
    W_hat = y[system.sl_W].reshape(system.s + system.n, system.m)
    x_m = y[system.sl_x] if noise is None else y[system.sl_x] + noise
    sigma = system.measured_basis(x_m)
    Y = np.outer(sigma, (x_m - y[system.sl_xr]) @ system.PB)
    # Below the normal range, e @ P B errs by up to n subnormal units, which gamma sigma scales.
    tol = system.gamma * (1e-12 * np.max(np.abs(Y))
                          + system.n * np.max(np.abs(sigma)) * SUBNORMAL)
    want = system.gamma * ctl.proj_matrix(W_hat, Y, system.projection)
    got = system.deriv(input_row(system, t, noise), y)[system.sl_W].reshape(W_hat.shape)
    assert np.max(np.abs(got - want)) <= tol
    # A column inside the inner ball, clear of rounding at its edge, keeps
    # the bits of the law without projection.
    free = _UNPROJECTED[system].deriv(input_row(system, t, noise), y)
    free = free[system.sl_W].reshape(W_hat.shape)
    inside = [ctl.phi(col, system.projection) < -1e-9 for col in W_hat.T]
    assert np.array_equal(got[:, inside], free[:, inside])


#: The oracle of each projected system and of its law with projection off.
_ORACLES = {system: oracle_for(system.scenario)
            for system in _PROJECTED_SYSTEMS + tuple(_UNPROJECTED.values())}


@st.composite
def small_error_state(draw):
    """(system, t, y, noise or None) whose measured error e = x_m - x_r and
    filter state e_L are down to 1e-300 of the measured state x_m, for a
    projected system or its law with projection off.  A component of x_m may
    be as small as e, so that rounding x_m - e does not lose e."""
    system, t, y, noise = draw(projected_state())
    system = draw(st.sampled_from([system, _UNPROJECTED[system]]))
    n = system.n
    shrink = np.array([10.0 ** draw(st.just(0.0) | st.floats(-300.0, 0.0)) for _ in range(n)])
    x = y[system.sl_x] * shrink
    noise = None if noise is None else noise * shrink
    x_m = x if noise is None else x + noise
    scale = 10.0 ** draw(st.floats(-300.0, 0.0)) * float(np.max(np.abs(x_m)))
    e, e_L = (scale * np.array(draw(st.lists(finite, min_size=n, max_size=n)))
              for _ in range(2))
    y[system.sl_x], y[system.sl_xr], y[system.sl_eL] = x, x_m - e, e_L
    return system, t, y, noise


def _term_sizes(oracle, t, y, noise) -> list[float]:
    """Per block of the oracle's rhs, the largest sum of the magnitudes of the
    terms one entry adds up, in either form of the law (the nominal control on
    x_m or on x_r + e): the block's rounding is a few ulps of this, however
    small the block is next to the state."""
    o, n = oracle, oracle.n
    x, x_r, x_ri, e_L = (np.abs(y[i * n:(i + 1) * n]) for i in range(4))
    W_hat = np.abs(y[4 * n:]).reshape(o.s + n, o.m)
    x_m = y[:n] if noise is None else y[:n] + noise
    e = np.abs(x_m - y[n:2 * n])
    sigma = np.abs(o.sigma(x_m))
    c = np.abs(o.B_r) @ np.full(o.n_c, abs(o.command_func(t)))
    A_r, K = np.abs(o.A_r), np.abs(o.K)
    u = K @ (np.abs(x_m) + x_r + e) + W_hat.T @ sigma
    delta = np.abs(o.W_p(t)).T @ np.abs(o.sigma_p(y[:n]))
    # Projection removes phi <= 1 times a column's 2-norm, and phi errs by
    # (1 + eps_theta) / eps_theta ulps of 1.
    projection = 1.0 if o.projection is None else 2.0 + 1.0 / o.projection[1]
    sizes = (np.abs(o.A) @ x + np.abs(o.B) @ (np.abs(o.lam) * u + delta) + c,
             A_r @ x_r + o.kappa * (e + e_L) + c,
             A_r @ x_ri + c,
             A_r @ e_L + o.eta * (e + e_L),
             # Below the normal range a product errs by a subnormal unit before the
             # gains multiply it.
             o.gamma * np.linalg.norm(sigma) * (e @ np.abs(o.PB) + TINY) * projection)
    return [float(np.max(size)) for size in sizes]


@settings(deadline=None, max_examples=200)
@given(small_error_state())
@example(_CANCELLING_CASE)
def test_deriv_equals_oracle_at_small_error(case):
    # Each block is within a few ulps of its own terms, not of the state: the
    # update law, the mismatch and the filter read e = x_m - x_r, however small.
    system, t, y, noise = case
    oracle = _ORACLES[system]
    got, want = system.deriv(input_row(system, t, noise), y), oracle.rhs(t, y, noise)
    bound = [16.0 * (EPS * size + SUBNORMAL) for size in _term_sizes(oracle, t, y, noise)]
    errors = [float(np.max(np.abs(got[sl] - want[sl]))) for sl in system.blocks]
    bad = [(name, err, b) for name, err, b in zip(system.block_names, errors, bound)
           if not err <= b]
    assert not bad


@settings(deadline=None, max_examples=100)
@given(projected_state())
def test_deriv_writes_into_the_given_buffer(case):
    # The result owes nothing to earlier calls: the shared system's buffers
    # last held another state's evaluation, noisy where this one is quiet.
    system, t, y, noise = case
    row = input_row(system, t, noise)
    want = assemble(system.scenario).deriv(row, y)
    system.deriv(input_row(system, t + 1.0, np.full(system.n, 0.05) if noise is None else None), -y)
    buf = np.full(system.state_dim, np.nan)
    assert system.deriv(row, y, out=buf) is buf
    assert np.array_equal(buf, want)


@settings(deadline=None, max_examples=40)
@given(steps=st.integers(1, 40), stride=st.integers(1, 9), onset=st.integers(0, 41),
       seed=st.integers(0, 2**32 - 1))
@example(steps=5, stride=2, onset=3, seed=0)
def test_one_pass_control_equals_single_sample(steps, stride, onset, seed):
    # run's control, one pass over the record, against the oracle's law at each sample.
    h = _PROPOSED.h
    noise = dataclasses.replace(_PROPOSED.noise, start_time=onset * h, seed=seed)
    scn = dataclasses.replace(_PROPOSED, noise=noise, t_final=steps * h, record_stride=stride)
    traj = run(scn)
    oracle = oracle_for(scn)
    # NoiseSpec's stream: one draw per step, from the first step at or after the onset.
    rng = np.random.default_rng(seed)
    draws = {k: rng.standard_normal(oracle.n) * np.asarray(noise.std)
             for k in range(steps + 1) if k * h >= noise.start_time}
    assert traj.t[-1] == steps * h
    assert traj.u.shape == (len(traj), oracle.m)
    for i, t in enumerate(traj.t.tolist()):
        x_m = traj.x[i] + draws.get(round(t / h), 0.0)
        u = oracle.control(x_m, traj.W_hat[i])
        assert np.max(np.abs(traj.u[i] - u)) <= 1e-12 * max(1.0, float(np.max(np.abs(u))))


@st.composite
def input_table_case(draw):
    """(system, h, first step k0, steps): wingrock_proposed with a drawn command
    of every kind and a drawn modulation of W_p's bias entry.  Square-wave sign
    changes, custom sample times and the modulation's start lie on the step
    grid, or half a step off it."""
    h = draw(st.sampled_from([1e-3, 5e-4, 1.25e-4, 0.01, 0.1 / 3.0]))
    k0, steps = draw(st.integers(0, 10**7)), draw(st.integers(1, 12))
    on_grid = st.integers(k0 - 3, k0 + steps + 3).map(lambda k: k * h) | st.integers(
        2 * k0 - 6, 2 * k0 + 2 * steps + 6).map(lambda j: j * h / 2.0)
    kind = draw(st.sampled_from(["zero", "step", "square_wave", "custom"]))
    if kind == "custom":
        times = sorted(set(draw(st.lists(on_grid, min_size=1, max_size=8))))
        command = CommandSpec(kind, times=times, values=draw(
            st.lists(finite, min_size=len(times), max_size=len(times))))
    else:
        command = CommandSpec(kind, amplitude=draw(finite), offset=draw(finite),
                              period=draw(st.integers(1, 6)) * h)
    mods = tuple(Modulation(row=0, col=0, kind=mod_kind, start=draw(on_grid))
                 for mod_kind in draw(st.lists(st.sampled_from(["sin", "step"]), max_size=2)))
    plant = _PROPOSED.plant
    truth = dataclasses.replace(plant.truth, modulations=mods)
    scn = dataclasses.replace(_PROPOSED, command=command,
                              plant=dataclasses.replace(plant, truth=truth))
    return assemble(scn), h, k0, steps


@settings(deadline=None, max_examples=200)
@given(input_table_case())
def test_input_table_rows_are_the_inputs_at_the_stage_times(case):
    # The rows of step k hold W_p and c, bit for bit, at k h, k h + h/2 and k h + h:
    # the stage times each step of a per-step loop forms.
    system, h, k0, steps = case
    noise = [None if k % 2 else np.full(system.n, float(k)) for k in range(steps)]
    table = list(system.stage_inputs(np.arange(k0, k0 + steps) * h, h, noise))
    assert len(table) == steps
    for k, rows, nu in zip(range(k0, k0 + steps), table, noise):
        assert len(rows) == 3
        for t, (W, c, nu_row) in zip((k * h, k * h + 0.5 * h, k * h + h), rows):
            want = truth_at(system.truth, t)
            assert W.shape == want.shape and W.tobytes() == want.tobytes()
            assert repr(c) == repr(system.command_spec.value(t))
            assert nu_row is nu


@settings(deadline=None, max_examples=300)
@given(names=st.lists(st.sampled_from(sorted(FEATURE_EXPRESSIONS) + ["x1", "x2", "x3", "x4"]),
                      min_size=1, max_size=8),
       x_p=st.lists(st.floats(-1e100, 1e100), min_size=4, max_size=4))
def test_built_basis_equals_feature_callables(names, x_p):
    basis = BasisSpec(tuple(names))
    for arg in (x_p, np.array(x_p)):
        got = np.array(basis.features(arg), dtype=float)
        want = np.array([resolve_feature(name, FEATURE_EXPRESSIONS)(arg) for name in names],
                        dtype=float)
        assert got.tobytes() == want.tobytes()
