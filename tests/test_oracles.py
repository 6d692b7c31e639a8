"""The eigenmode oracle's closed-form references against independent
numerical ones (matrix exponentials, an adaptive integrator), and the
start-up import graph the closed form keeps small."""
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import rdawave
from rdawave.grid import Grid
from rdawave.model import FieldProfile, PowerNonlinearity, make_model, rate_split
from rdawave.oracles import (exact_forced_modal, exact_unforced_modal, modal_exponential,
                             modal_matrix)

GRID = Grid(1, 10.0, 8)  # the references read only the model's rates
ZERO = FieldProfile("zero")


@st.composite
def modal_systems(draw):
    """(model, mu) of a linear model and a Laplacian eigenvalue mu <= 0.

    The modal matrix has s = -alpha/2 and det = lam - mu, so its
    discriminant s^2 - det is alpha^2/4 - lam + mu: each draw puts it below
    0 (oscillating), within 1e-7 of 0 (critical) or above 0 (overdamped)."""
    alpha = draw(st.floats(0.2, 4.0))
    gap = alpha ** 2 / 4.0
    regime = draw(st.sampled_from(["oscillating", "critical", "overdamped"]))
    if regime == "oscillating":
        mu = draw(st.floats(-50.0, 0.0))
        lam = max(gap + mu, 0.0) + draw(st.floats(1e-3, 5.0))
    else:
        lam = gap * draw(st.floats(0.05, 0.95))
        if regime == "critical":
            mu = lam - gap + draw(st.one_of(st.just(0.0), st.floats(-1e-7, 1e-7)))
        else:
            mu = (lam - gap) * draw(st.floats(0.0, 0.95))
    delta = rate_split(alpha, lam, 4.0)[0] * draw(st.floats(0.1, 1.9))
    model = make_model(GRID, alpha=alpha, lam=lam, nonlin=PowerNonlinearity(a=0.0),
                       g=ZERO, h=ZERO, delta=delta)
    return model, mu


def relative_error(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@settings(max_examples=150, deadline=None)
@given(modal_systems(), st.floats(0.0, 10.0))
def test_exponential_matches_a_40_digit_exponential(system, t):
    mpmath = pytest.importorskip("mpmath")
    B = modal_matrix(*system)
    with mpmath.workdps(40):
        want = np.array(mpmath.expm(mpmath.matrix(B.tolist()) * t).tolist(), dtype=float)
    assert relative_error(modal_exponential(B, [t])[0], want) <= 1e-13


@settings(max_examples=150, deadline=None)
@given(modal_systems(), st.floats(0.0, 10.0))
def test_exponential_matches_scipy_expm(system, t):
    # scipy's scaling and squaring is itself off a 40-digit exponential by up
    # to 5e-13 relative on these draws, hence the looser bound
    B = modal_matrix(*system)
    assert relative_error(modal_exponential(B, [t])[0], expm(B * t)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(modal_systems(), st.floats(-2.0, 2.0), st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       st.floats(-5.0, 5.0), st.floats(0.5, 10.0))
def test_forced_solution_matches_dop853(system, h_c, x0, t0, span):
    model, mu = system
    B = modal_matrix(model, mu)
    c = h_c * np.array([1.0, model.delta - model.alpha])
    ts = t0 + span * np.linspace(0.0, 1.0, 5)
    # one integration per time: DOP853's dense output (t_eval) interpolates
    # between steps, and was 2e-10 off its own step endpoints on a slow mode
    ref = [x0] + [solve_ivp(lambda t, x: B @ x + c * math.sin(t), (t0, t), np.array(x0),
                            method="DOP853", rtol=1e-12, atol=1e-14).y[:, -1] for t in ts[1:]]
    np.testing.assert_allclose(exact_forced_modal(model, mu, h_c, x0, ts), ref, rtol=1e-10,
                               atol=1e-10 * max(1.0, np.abs(ref).max()))


@settings(max_examples=60, deadline=None)
@given(modal_systems(), st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
def test_zero_forcing_is_the_unforced_solution(system, x0):
    model, mu = system
    ts = np.linspace(-1.0, 9.0, 21)
    np.testing.assert_allclose(exact_forced_modal(model, mu, 0.0, x0, ts),
                               exact_unforced_modal(model, mu, x0, ts), rtol=0, atol=1e-15)


def test_cli_start_up_does_not_import_an_integrator():
    src = str(Path(rdawave.__file__).resolve().parents[1])
    probe = "import sys, rdawave.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src}).stdout
    assert out.strip() == "False"
