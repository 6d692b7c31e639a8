"""The one-point law of the linear random attractor, a reference that skips
the change of variables.

With f = 0 and g = 0, sine mode m of the untransformed equation
u_tt + alpha u_t + (lam - Laplacian_h) u = h dW/dt is a damped oscillator
driven by h_m dW, where h_m is h's coefficient on the mode (normalised in the
grid's inner product) and mu_m <= 0 its Laplacian eigenvalue.  Its
stationary law is Gaussian with mean 0, Var(u_m) = h_m^2 / (2 alpha (lam -
mu_m)) and Var(u_t,m) = h_m^2 / (2 alpha): the stationary Ornstein-Uhlenbeck
covariance (Da Prato & Zabczyk, Stochastic Equations in Infinite Dimensions,
1992).  The pullback state at t = 0 from zero data at tau = -24 has that law
up to e^{-alpha |tau| / 2} ~ 6e-6, so its sample variance over 1000 path
seeds must match it within sampling error.  A pathwise check cannot see a
factor of 2 or a sign error in how the noise enters the step; this one can."""
import math

import numpy as np
import pytest

from rdawave.grid import Grid, inner
from rdawave.model import FieldProfile, PowerNonlinearity, make_model
from rdawave.oracles import eigenmode
from rdawave.paths import generate_path
from rdawave.solver import SCHEMES, Column, SolveSpec, Stepper

GRID = Grid(1, 10.0, 31)
MODEL = make_model(GRID, alpha=1.0, lam=1.0, nonlin=PowerNonlinearity(a=0.0),
                   g=FieldProfile("zero"), h=FieldProfile("gaussian"))
TAU, DT, SEEDS = -24.0, 0.01, 1000
# h is even about 0, so its even modes vanish
MODES = (1, 3, 5)
# 1000 samples put a variance's sampling sd near 4.5 %: 25 % is over 5 sd
TOLERANCE = 0.25


@pytest.fixture(scope="module")
def paths():
    return [generate_path(seed, TAU, 0.0, DT) for seed in range(SEEDS)]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_pullback_state_has_the_stationary_ornstein_uhlenbeck_law(paths, scheme):
    modes = []
    for k in MODES:
        vec, mu = eigenmode(GRID, k)
        modes.append((vec / math.sqrt(inner(GRID, vec, vec)), mu))
    # each row maps node values to a mode's coefficient in the grid's inner product
    project = np.array([e for e, _ in modes]) * GRID.cell_volume
    zero = np.zeros(GRID.shape)
    cols = [Column(lambda: (zero, zero), TAU, 0.0, path,
                   finish=lambda u, z: (project @ u, project @ (z - MODEL.delta * u)))
            for path in paths]
    finals = Stepper(MODEL, SolveSpec(dt=DT, scheme=scheme)).march(cols)
    u_m = np.array([u for u, _ in finals])
    ut_m = np.array([ut for _, ut in finals])
    for j, (e, mu) in enumerate(modes):
        h_m = inner(GRID, MODEL.h, e)
        var_u = h_m ** 2 / (2.0 * MODEL.alpha * (MODEL.lam - mu))
        var_ut = h_m ** 2 / (2.0 * MODEL.alpha)
        assert abs(np.var(u_m[:, j]) / var_u - 1.0) <= TOLERANCE, (MODES[j], "u")
        assert abs(np.var(ut_m[:, j]) / var_ut - 1.0) <= TOLERANCE, (MODES[j], "u_t")
