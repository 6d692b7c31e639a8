"""The eigenmode oracle's closed form against independent references
(40-digit matrix exponentials, scipy's expm), the convergence study's use of
the model's linear part, and the start-up import graph the closed form keeps
small."""
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import rdawave
from rdawave.config import RunConfig, parse_config
from rdawave.grid import Grid
from rdawave.model import FieldProfile, PowerNonlinearity, make_model, rate_split
from rdawave.oracles import (exact_forced_modal, exact_unforced_modal, modal_exponential,
                             modal_matrix, run_convergence_study)

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


def propagated_40_digits(A, y0, t0, ts) -> np.ndarray:
    """e^{A(t - t0)} y0 for each t in `ts`, computed at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        A, y0 = mpmath.matrix(A), mpmath.matrix(y0)
        return np.array([(mpmath.expm(A * (mpmath.mpf(t) - t0)) * y0).tolist()
                         for t in ts], dtype=float)[:, :, 0]


# a critically damped draw (disc = 0 exactly) on which an adaptive DOP853
# reference at rtol 1e-12 was 3.8e-10 off the 40-digit solution
CRITICAL = make_model(GRID, alpha=3.390625, lam=1.437042236328125,
                      nonlin=PowerNonlinearity(a=0.0), g=ZERO, h=ZERO, delta=0.052978515625)


@settings(max_examples=60, deadline=None)
@given(modal_systems(), st.floats(-2.0, 2.0), st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       st.floats(-5.0, 5.0), st.floats(0.5, 10.0))
@example((CRITICAL, CRITICAL.lam - CRITICAL.alpha ** 2 / 4.0), -1.796875, (1.546875, 0.0),
         4.765625, 2.0)
def test_forced_solution_matches_a_40_digit_solution(system, h_c, x0, t0, span):
    # x' = Bx + c sin t is autonomous in y = (x, sin t, cos t): y' = Ay with
    # A = [[B, c, 0], [0, 0, 1], [0, -1, 0]], so y(t) = e^{A(t - t0)} y(t0)
    mpmath = pytest.importorskip("mpmath")
    model, mu = system
    B = modal_matrix(model, mu)
    c = h_c * np.array([1.0, model.delta - model.alpha])
    A = np.zeros((4, 4))
    A[:2, :2], A[:2, 2], A[2, 3], A[3, 2] = B, c, 1.0, -1.0
    ts = t0 + span * np.linspace(0.0, 1.0, 5)
    with mpmath.workdps(40):
        y0 = [x0[0], x0[1], mpmath.sin(t0), mpmath.cos(t0)]
        ref = propagated_40_digits(A, y0, t0, ts)[:, :2]
    np.testing.assert_allclose(exact_forced_modal(model, mu, h_c, x0, ts), ref, rtol=1e-10,
                               atol=1e-10 * max(1.0, np.abs(ref).max()))


@settings(max_examples=60, deadline=None)
@given(modal_systems(), st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
def test_zero_forcing_is_the_unforced_solution(system, x0):
    # exact_unforced_modal is the forced closed form at h_c = 0
    model, mu = system
    ts = np.linspace(-1.0, 9.0, 21)
    ref = propagated_40_digits(modal_matrix(model, mu), x0, ts[0], ts)
    np.testing.assert_allclose(exact_unforced_modal(model, mu, x0, ts), ref, rtol=1e-12,
                               atol=1e-12 * max(1.0, np.abs(ref).max()))


def test_study_reads_only_the_models_linear_part():
    # a nonlinear, forced model studies as its linear part: the same report
    # as the config with a = b = 0 and zero g and h
    cfg = parse_config("model.alpha = 1.0\nmodel.lambda = 1.0\ngrid.n = 64\n"
                       "solver.dt = 0.01\nmodel.a = 1.0\nmodel.b = 0.5\n"
                       "model.g.profile = gaussian\nmodel.h.profile = gaussian\n")
    linear = {"model.a": 0.0, "model.b": 0.0, "model.g.profile": "zero",
              "model.h.profile": "zero"}
    report = run_convergence_study(cfg.build_model())
    assert report == run_convergence_study(RunConfig({**cfg.values, **linear}).build_model())
    assert list(report) == ["dts", "semi_implicit", "crank_nicolson_linear"]


def test_cli_start_up_does_not_import_an_integrator():
    src = str(Path(rdawave.__file__).resolve().parents[1])
    probe = "import sys, rdawave.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src}).stdout
    assert out.strip() == "False"
