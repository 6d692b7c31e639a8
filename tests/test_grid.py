"""Discrete domain: Laplacian structure, norms, cutoff weights, tail norms."""
import math

import numpy as np
import pytest

from rdawave.grid import (Grid, cutoff_rho, field_from_profile, grad_inner, grad_sq, inner,
                          laplacian_matrix, norm_h1, norm_l2, tail_weighted_norms)
from rdawave.model import FieldProfile


def laplacian(grid, f):
    """The discrete Laplacian with zero Dirichlet ghosts, written out: on
    each axis, the second difference of the zero-padded values over h^2."""
    return sum(np.diff(np.pad(f, [(1, 1) if a == ax else (0, 0) for a in range(grid.dim)]),
                       n=2, axis=ax) for ax in range(grid.dim)) / grid.spacing ** 2


def cutoff_rho_prime(s):
    """rho' written out: 6t(1 - t) sign(s) with t = |s| - 1 on 1 < |s| < 2, else 0."""
    t = np.abs(s) - 1.0
    return np.where((t > 0.0) & (t < 1.0), 6.0 * t * (1.0 - t), 0.0) * np.sign(s)


def random_field(grid, seed=0):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal(grid.shape)


def test_grid_geometry():
    g = Grid(1, 2.0, 7)
    assert g.spacing == pytest.approx(0.5)
    xs = g.axis_coords()
    assert xs[0] == pytest.approx(-1.5)
    assert xs[-1] == pytest.approx(1.5)
    assert g.cell_volume == pytest.approx(0.5)
    g3 = Grid(3, 1.0, 4)
    assert g3.shape == (4, 4, 4)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 1.0, 8)
    with pytest.raises(ValueError):
        Grid(1, -1.0, 8)
    with pytest.raises(ValueError):
        Grid(1, 1.0, 2)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_laplacian_operator_matches_matrix(dim):
    g = Grid(dim, 1.5, 6)
    f = random_field(g, seed=dim)
    via_op = laplacian(g, f).ravel()
    via_mat = laplacian_matrix(g) @ f.ravel()
    assert np.allclose(via_op, via_mat, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_laplacian_symmetry(dim):
    g = Grid(dim, 1.0, 5)
    f, k = random_field(g, 1), random_field(g, 2)
    lhs = inner(g, laplacian(g, f), k)
    rhs = inner(g, f, laplacian(g, k))
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_laplacian_negative_semidefinite(dim):
    g = Grid(dim, 1.0, 5)
    for seed in range(4):
        f = random_field(g, seed)
        assert inner(g, laplacian(g, f), f) <= 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_summation_by_parts_identity(dim):
    g = Grid(dim, 1.2, 6)
    f = random_field(g, seed=10 + dim)
    lhs = -inner(g, laplacian(g, f), f)
    rhs = grad_sq(g, f)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_laplacian_eigenpair():
    g = Grid(1, 1.0, 31)
    k, n, h = 4, g.n, g.spacing
    j = np.arange(1, n + 1)
    vec = np.sin(k * math.pi * j / (n + 1))
    mu = -(4.0 / h ** 2) * math.sin(k * math.pi / (2 * (n + 1))) ** 2
    assert np.allclose(laplacian(g, vec), mu * vec, rtol=1e-12)


def test_laplacian_max_eig_bounds_spectrum():
    g = Grid(2, 1.0, 8)
    eigs = np.linalg.eigvalsh(laplacian_matrix(g).toarray())
    assert np.max(np.abs(eigs)) <= g.laplacian_max_eig()


def test_norms_and_inner_consistency():
    g = Grid(1, 1.0, 9)
    f = random_field(g, 3)
    assert norm_l2(g, f) ** 2 == pytest.approx(inner(g, f, f), rel=1e-14)
    assert norm_h1(g, f) ** 2 == pytest.approx(norm_l2(g, f) ** 2 + grad_sq(g, f), rel=1e-14)
    assert grad_inner(g, f, f) == pytest.approx(grad_sq(g, f), rel=1e-14)


def test_mismatched_grids_rejected():
    a = random_field(Grid(1, 1.0, 5))
    b = random_field(Grid(1, 1.0, 6))
    with pytest.raises(ValueError):
        inner(Grid(1, 1.0, 5), a, b)


def test_cutoff_plateaus_and_smooth_join():
    assert cutoff_rho(0.0) == 0.0
    assert cutoff_rho(1.0) == 0.0
    assert cutoff_rho(-0.7) == 0.0
    assert cutoff_rho(2.0) == 1.0
    assert cutoff_rho(5.0) == 1.0
    assert cutoff_rho(1.5) == pytest.approx(0.5)
    s = np.linspace(-3.0, 3.0, 601)
    vals = cutoff_rho(s)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.diff(cutoff_rho(np.linspace(1.0, 2.0, 200))) >= 0.0)


def test_cutoff_derivative_bound_and_consistency():
    s = np.linspace(-3.0, 3.0, 1201)
    d = cutoff_rho_prime(s)
    assert np.max(np.abs(d)) <= 1.5 + 1e-12
    # finite-difference check away from the (C^1) joins
    for x in (1.3, 1.7, -1.4):
        fd = (cutoff_rho(x + 1e-6) - cutoff_rho(x - 1e-6)) / 2e-6
        assert cutoff_rho_prime(x) == pytest.approx(fd, abs=1e-6)


def test_tail_norms_vanish_inside_cutoff():
    g = Grid(1, 10.0, 199)
    prof = FieldProfile("bump", amplitude=1.0, width=2.0)
    u = field_from_profile(g, prof)  # supported in |x| < 2
    v = u.copy()
    tn = tail_weighted_norms(g, u, v, k=3.0)  # weight vanishes for |x| <= 3
    assert tn.u_l2_sq == 0.0
    assert tn.v_l2_sq == 0.0
    assert tn.grad_u_sq == 0.0
    assert not tn.truncated


def test_tail_norms_capture_far_field_mass():
    g = Grid(1, 10.0, 199)
    prof = FieldProfile("bump", amplitude=1.0, width=1.0, center=8.0)
    u = field_from_profile(g, prof)  # supported in |x - 8| < 1
    v = np.zeros(g.shape)
    tn = tail_weighted_norms(g, u, v, k=4.0)  # weight is 1 for |x| >= sqrt(2)*4
    assert tn.u_l2_sq == pytest.approx(norm_l2(g, u) ** 2, rel=1e-12)


def test_tail_norms_monotone_decreasing_in_k():
    g = Grid(1, 10.0, 199)
    u = random_field(g, 4)
    v = random_field(g, 5)
    vals = [sum(tail_weighted_norms(g, u, v, k)[:3]) for k in (1.0, 2.0, 4.0, 6.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_tail_norms_truncation_flag_and_validation():
    g = Grid(1, 10.0, 49)
    u, v = np.zeros(g.shape), np.zeros(g.shape)
    assert tail_weighted_norms(g, u, v, 8.0).truncated  # sqrt(2)*8 > 10
    with pytest.raises(ValueError):
        tail_weighted_norms(g, u, v, 0.0)


def test_field_profile_center_offset():
    g = Grid(1, 5.0, 99)
    f = field_from_profile(g, FieldProfile("gaussian", center=1.0))
    xs = g.axis_coords()
    assert xs[np.argmax(f)] == pytest.approx(1.0, abs=g.spacing)
