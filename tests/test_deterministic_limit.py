"""The deterministic limit, an exact reference for the critical cubic equation.

With h = 0, a >= 0 and lam > 0 the equilibrium u* of (lam - Laplacian_h) u
+ f(u) = g is unique and the energy is a strict Lyapunov function, so the
deterministic attractor is {(u*, delta u*)} and every pullback state tends to
it.  Both schemes' fixed points satisfy exactly that discrete equation,
whatever dt is, so the t = 0 state of a run from tau approaches (u*, delta u*)
to roundoff as tau -> -infinity, at the linear rate alpha/2 (lam > alpha^2/4).
With h = eps * h0 the distance is linear in eps: the random attractor is upper
semicontinuous as the noise vanishes (Caraballo, Langa & Robinson, Comm. PDE
23 (1998)).  Here u* comes from a Newton solve on the Laplacian matrix, not
from the march."""
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rdawave.experiments import product_norm_sq, random_state
from rdawave.grid import Grid, laplacian_matrix
from rdawave.model import FieldProfile, PowerNonlinearity, make_model
from rdawave.paths import generate_path
from rdawave.solver import SCHEMES, Column, SolveSpec, Stepper

ALPHA = LAM = 1.0
CUBIC = PowerNonlinearity(a=1.0, gamma=3.0)
G = FieldProfile("gaussian", amplitude=5.0)
TAUS = (-16.0, -32.0, -64.0)
# (grid, dt): 1-D on the nodes, 3-D in sine coordinates
CASES = {1: (Grid(1, 20.0, 127), 0.01), 3: (Grid(3, 5.0, 11), 0.02)}


def equilibrium(model):
    """u* of (lam - Laplacian_h) u + f(u) = g by Newton's method, with
    J = lam - Laplacian_h + f'(u), stopped at a step below 1e-15 relative."""
    grid, nl = model.grid, model.nonlin
    N = grid.n ** grid.dim
    lin = model.lam * sp.identity(N, format="csr") - laplacian_matrix(grid)
    g = model.g.ravel()
    u = np.zeros(N)
    for _ in range(20):
        residual = lin @ u + nl.f(u) - g
        slope = nl.a * nl.gamma * np.abs(u) ** (nl.gamma - 1.0) + nl.b
        du = spla.spsolve((lin + sp.diags(slope)).tocsc(), residual)
        u -= du
        if np.linalg.norm(du) <= 1e-15 * np.linalg.norm(u):
            return u.reshape(grid.shape)
    raise AssertionError("Newton did not converge")


def pullback_distances(model, scheme, dt, taus):
    """Relative H1 x L2 distance of the t = 0 state of a run from each tau,
    from family data of radius 1 along path seed 0, to (u*, delta u*)."""
    grid = model.grid
    u_star = equilibrium(model)
    z_star = model.delta * u_star
    scale = math.sqrt(product_norm_sq(grid, u_star, z_star))
    path = generate_path(0, min(taus), 0.0, dt)
    cols = [Column(lambda i=i: random_state(grid, i, 1.0), tau, 0.0, path,
                   finish=lambda u, z: math.sqrt(product_norm_sq(grid, u - u_star, z - z_star)))
            for i, tau in enumerate(taus)]
    return [d / scale for d in Stepper(model, SolveSpec(dt=dt, scheme=scheme)).march(cols)]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("dim", sorted(CASES))
def test_pullback_state_reaches_the_equilibrium_at_rate_alpha_over_2(dim, scheme):
    grid, dt = CASES[dim]
    model = make_model(grid, ALPHA, LAM, CUBIC, g=G, h=FieldProfile("zero"))
    d16, d32, d64 = pullback_distances(model, scheme, dt, TAUS)
    assert d64 <= 1e-12
    rate = math.log(d16 / d32) / 16.0
    assert rate == pytest.approx(ALPHA / 2.0, rel=0.1)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_distance_to_the_equilibrium_is_linear_in_the_noise(scheme):
    """h = eps * gaussian: distance/eps is the same to 1 % for eps = 0.1,
    0.01, 0.001 at tau = -32, where the data is forgotten (1-D)."""
    grid, dt = CASES[1]
    ratios = []
    for eps in (0.1, 0.01, 0.001):
        model = make_model(grid, ALPHA, LAM, CUBIC, g=G,
                           h=FieldProfile("gaussian", amplitude=eps))
        ratios.append(pullback_distances(model, scheme, dt, [-32.0])[0] / eps)
    assert max(ratios) <= 1.01 * min(ratios), ratios
