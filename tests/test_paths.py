"""Noise-path generation, shifting, and the exponential path integral."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rdawave.paths import (FrozenPath, PathRangeError, ShiftedView, generate_path, shift,
                           tempered_integral)


def test_origin_is_pinned_to_zero():
    for seed in range(6):
        p = generate_path(seed, -10.0, 10.0, 0.01)
        assert p.evaluate(0.0) == 0.0


def test_same_seed_reproduces_identical_path():
    a = generate_path(7, -5.0, 5.0, 0.02)
    b = generate_path(7, -5.0, 5.0, 0.02)
    assert np.array_equal(a.values, b.values)


def test_different_seeds_differ():
    a = generate_path(0, -1.0, 1.0, 0.01)
    b = generate_path(1, -1.0, 1.0, 0.01)
    assert not np.array_equal(a.values, b.values)


def test_negative_branch_independent_of_positive():
    # shrinking the positive range must not change the negative branch
    long = generate_path(3, -4.0, 8.0, 0.01)
    short = generate_path(3, -4.0, 1.0, 0.01)
    ts = np.arange(-4.0, 0.0, 0.01)
    assert np.array_equal(long.evaluate(ts), short.evaluate(ts))


def test_increment_statistics():
    dt = 0.01
    p = generate_path(42, -50.0, 50.0, dt)
    inc = np.diff(p.values)
    n = len(inc)
    assert abs(np.mean(inc)) < 4.0 * math.sqrt(dt / n)
    assert 0.9 < np.var(inc) / dt < 1.1


def test_node_evaluation_is_exact_and_interpolation_linear():
    p = generate_path(5, -2.0, 2.0, 0.1)
    ts = p.t_lo + p.dt_path * np.arange(len(p.values))
    for i in (0, 7, len(ts) - 1):
        assert p.evaluate(float(ts[i])) == p.values[i]
    mid = 0.5 * (ts[3] + ts[4])
    assert p.evaluate(float(mid)) == pytest.approx(
        0.5 * (p.values[3] + p.values[4]), rel=1e-14)


def test_out_of_range_evaluation_raises():
    p = generate_path(0, -1.0, 1.0, 0.1)
    with pytest.raises(PathRangeError, match=r"^t=1\.5 outside path range"):
        p.evaluate(1.5)
    # an array names its first time out of range, not the whole array
    with pytest.raises(PathRangeError, match=r"^t=-2\.0 outside path range"):
        p.evaluate(np.array([0.0, -2.0, 0.5, 3.0]))


def test_generate_path_argument_validation():
    with pytest.raises(ValueError):
        generate_path(0, -1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        generate_path(0, 1.0, 2.0, 0.1)  # range must contain 0


def test_shift_definition():
    p = generate_path(9, -10.0, 10.0, 0.01)
    s = 2.0
    sh = shift(p, s)
    for t in (-1.0, 0.0, 0.5, 3.0):
        assert sh.evaluate(t) == pytest.approx(
            p.evaluate(t + s) - p.evaluate(s), abs=1e-15)
    assert sh.evaluate(0.0) == 0.0


def test_shift_composition_flattens_to_group_law():
    p = generate_path(9, -10.0, 10.0, 0.01)
    double = shift(shift(p, 1.5), 2.5)
    single = shift(p, 4.0)
    assert isinstance(double, ShiftedView)
    assert double.base is p  # no nested views
    ts = np.linspace(-3.0, 3.0, 41)
    assert np.array_equal(double.evaluate(ts), single.evaluate(ts))


def test_shift_range_bookkeeping():
    p = generate_path(0, -4.0, 4.0, 0.1)
    sh = shift(p, -1.0)
    # theta_{-1} omega lives on [-4 + 1, 4 + 1]: its ends are the base path's ends
    assert sh.evaluate(-3.0) == p.values[0] - p.evaluate(-1.0)
    assert sh.evaluate(5.0) == p.values[-1] - p.evaluate(-1.0)
    with pytest.raises(PathRangeError):
        sh.evaluate(5.5)


def test_frozen_path_must_vanish_at_zero():
    FrozenPath(math.sin)
    with pytest.raises(ValueError):
        FrozenPath(math.cos)


def test_tempered_integral_monotone_in_cut():
    p = generate_path(2, -60.0, 0.0, 0.01)
    vals = [tempered_integral(p, 0.25, 3.0, tc)
            for tc in (-10.0, -20.0, -40.0)]
    # extending the range only adds nonnegative mass
    assert vals[0] <= vals[1] <= vals[2]
    assert vals[0] > 0.0


def test_tempered_integral_against_adaptive_quadrature():
    sigma, gamma = 0.5, 3.0
    path = FrozenPath(math.sin)
    got = tempered_integral(path, sigma, gamma, -30.0)
    ref, _ = quad(lambda x: math.exp(sigma * x)
                  * (1.0 + math.sin(x) ** 2 + abs(math.sin(x)) ** (gamma + 1.0)),
                  -30.0, 0.0, limit=500)
    assert got == pytest.approx(ref, rel=1e-5)


def test_tempered_integral_validation():
    p = generate_path(0, -5.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        tempered_integral(p, 0.0, 3.0, -1.0)
    with pytest.raises(ValueError):
        tempered_integral(p, 0.5, 5.0, -1.0)
    with pytest.raises(ValueError):
        tempered_integral(p, 0.5, 3.0, 1.0)
    with pytest.raises(PathRangeError):
        tempered_integral(p, 0.5, 3.0, -10.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), dt=st.sampled_from([0.01, 0.02, 0.05]),
       m=st.integers(1, 300), j=st.integers(-100, 100) | st.none(),
       sigma=st.floats(0.05, 2.0), gamma=st.floats(1.0, 3.0))
def test_tempered_integral_is_exact_on_nodes(seed, dt, m, j, sigma, gamma):
    # on a base path (j None) or its shift by j whole path steps, a cut at
    # -m*dt puts every quadrature time on a node: the integrand is the one
    # built straight from the node values
    p = generate_path(seed, -25.0, 6.0, dt)
    zero = int(round(-p.t_lo / dt))
    path = p if j is None else shift(p, j * dt)
    at = zero + (j or 0)  # node index of the path's t = 0
    ws = p.values[at - m:at + 1] - p.values[at]
    ts = -dt * np.arange(m, -1, -1)
    integrand = np.exp(sigma * ts) * (1.0 + ws ** 2 + np.abs(ws) ** (gamma + 1.0))
    assert tempered_integral(path, sigma, gamma, -dt * m) == float(np.trapezoid(integrand, ts))


@settings(max_examples=60, deadline=None)
@given(s=st.floats(-1.0, 1.0), t=st.floats(-1.0, 1.0), r=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2 ** 16))
def test_nested_shift_view_obeys_group_law(s, t, r, seed):
    # theta_t(theta_s omega), built as a view of a view (`shift` would flatten it)
    p = generate_path(seed, -4.0, 4.0, 0.01)
    nested = ShiftedView(base=ShiftedView(base=p, shift_s=s), shift_s=t)
    assert abs(nested.evaluate(r) - shift(p, s + t).evaluate(r)) <= 1e-12
