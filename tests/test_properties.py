"""Property tests: projection invariants over random shapes, and the config
serialize -> parse -> serialize round trip."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flmrac import controllers as ctl
from flmrac.simcli import dict_to_scenario, load_config, serialize_scenario

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


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
        assert abs(float(g.dot(o)) - (1.0 - f) * gy) <= 1e-12 * scale
        # The correction never points away from any estimate in the inner ball.
        if ctl.phi(theta_star, spec) <= 0.0:
            d = theta - theta_star
            assert float(d.dot(o - y)) <= 1e-12 * _l1(d) * (_l1(y) + _l1(o - y))


def _l1(v) -> float:
    return float(np.sum(np.abs(v)))


_, _BUNDLED = load_config("wingrock_proposed")


@settings(deadline=None, max_examples=100)
@given(gamma=st.floats(1e-3, 1e6), kappa=st.floats(0.0, 1e4), eta=st.floats(0.0, 1e4),
       seed=st.integers(0, 2**63 - 1), h=st.floats(1e-6, 0.1),
       steps=st.floats(1.0, 1e6), record_stride=st.integers(1, 1000))
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
