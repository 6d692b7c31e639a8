"""Time stepping: implicit solve, stability guard, observers, divergence,
cocycle plumbing."""
import math

import numpy as np
import pytest
import scipy.sparse as sp

import rdawave.solver
from rdawave.energy import energy_E
from rdawave.grid import Grid, laplacian_matrix
from rdawave.model import FieldProfile, PowerNonlinearity, make_model
from rdawave.paths import FrozenPath, PathRangeError, generate_path, shift
from rdawave.solver import (Column, DivergenceError, SolveSpec, Stepper, evolve,
                            implicit_solve, reconstruct_z, sine_coordinates, step)


@pytest.fixture
def small_model():
    grid = Grid(1, 5.0, 64)
    return make_model(grid, g=FieldProfile("gaussian"), h=FieldProfile("gaussian"))


def zero_state(grid):
    """(u, z) at rest."""
    return np.zeros(grid.shape), np.zeros(grid.shape)


def test_solve_spec_validation():
    with pytest.raises(ValueError):
        SolveSpec(dt=0.0)
    with pytest.raises(ValueError):
        SolveSpec(scheme="euler")
    with pytest.raises(ValueError):
        SolveSpec(record_every=0)


def test_stability_guard_rejects_large_dt(small_model):
    path = FrozenPath(lambda t: 0.0)
    with pytest.raises(ValueError, match="stability"):
        evolve(*zero_state(small_model.grid), 0.0, 20.0, path, small_model,
               SolveSpec(dt=10.0))


# n+1 a power of two, and n+1 prime
@pytest.mark.parametrize("dim,n", [(1, 31), (1, 12), (2, 15), (2, 12), (3, 7), (3, 10)])
def test_implicit_solve_matches_laplacian_matrix(dim, n):
    """1-D: the LU solve on the nodes.  2-D/3-D: the sine solve, a divide by
    a + coef*(lam' + mu) between two transforms."""
    grid = Grid(dim, 3.0, n)
    a, coef, lam_prime = 1.02, 4e-4, 0.8
    mat = (a + coef * lam_prime) * sp.identity(n ** dim) - coef * laplacian_matrix(grid)
    rng = np.random.Generator(np.random.Philox(key=dim * 100 + n))
    rhs = rng.standard_normal(n ** dim)
    if dim == 1:
        solve = implicit_solve(grid, a, coef, lam_prime)
    else:
        S, mu = sine_coordinates(grid)

        def solve(r):
            return S(S(r) / (a + coef * (lam_prime + mu)))
    x = solve(rhs)
    assert x.shape == rhs.shape
    assert np.linalg.norm(mat @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    # a batch of right-hand sides: each row exactly as it is solved alone
    batch = np.vstack([rhs, rng.standard_normal((3, n ** dim))])
    assert all(np.array_equal(row, solve(r)) for row, r in zip(solve(batch), batch))


def test_nodes_solve_calls_scipy_through_the_solver_module(monkeypatch):
    # the benchmark's tracer times SuperLU by replacing `rdawave.solver.spla`
    calls = {"splu": 0, "solve": 0}
    real = rdawave.solver.spla

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            calls["solve"] += 1
            return self.lu.solve(rhs)

    class CountingSpla:
        def __getattr__(self, name):
            return getattr(real, name)

        def splu(self, *args, **kwargs):
            calls["splu"] += 1
            return CountingLU(real.splu(*args, **kwargs))

    monkeypatch.setattr(rdawave.solver, "spla", CountingSpla())
    run = Stepper(make_model(Grid(1, 5.0, 32)), SolveSpec())  # 1-D cubic: on the nodes
    u = v = np.zeros((1, 32))
    for _ in range(2):
        u, v, _ = step(run, u, v, np.ones((1, 1)))
    assert calls == {"splu": 1, "solve": 2}


def test_evolve_leaves_no_module_state(small_model):
    def sizes():
        return {k: len(v) for k, v in vars(rdawave.solver).items()
                if isinstance(v, (dict, list, set))}

    path = generate_path(1, -1.0, 1.0, 0.01)
    spec = SolveSpec(dt=0.01)
    before = sizes()
    for t_end in (0.12, 0.23):  # two runs of different lengths
        evolve(*zero_state(small_model.grid), 0.0, t_end, path, small_model, spec)
    assert sizes() == before


def test_zero_data_stays_zero():
    grid = Grid(1, 5.0, 64)
    m = make_model(grid, g=FieldProfile("zero"), h=FieldProfile("zero"))
    path = FrozenPath(math.sin)
    spec = SolveSpec(dt=0.01)
    u, z = evolve(*zero_state(grid), 0.0, 1.0, path, m, spec)
    assert np.all(u == 0.0)
    assert np.all(z == 0.0)


def test_divergence_raises():
    grid = Grid(1, 5.0, 16)
    m = make_model(grid, nonlin=PowerNonlinearity(a=1.0, gamma=3.0))
    big = np.full(grid.shape, 1e150)
    path = FrozenPath(lambda t: 0.0)
    spec = SolveSpec(dt=0.01)
    with pytest.raises(DivergenceError):  # silently: warnings are errors in this suite
        evolve(big, big.copy(), 0.0, 0.1, path, m, spec)


@pytest.mark.parametrize("dim", [1, 2])
def test_divergence_names_the_diverging_columns_tau_and_seed(dim):
    """In a group of columns at different taus, only the one started from
    huge data diverges; the error names its tau and its path's seed (a
    shifted path gives its base's seed, a frozen path has none).  It also
    carries that column's last finite state: its time `t_last`, max|u| and
    E, as the column marched alone records them."""
    grid = Grid(dim, 5.0, 16 if dim == 1 else 7)
    m = make_model(grid, nonlin=PowerNonlinearity(a=1.0, gamma=3.0))
    paths = [generate_path(seed, -1.0, 1.0, 0.01) for seed in range(3)]
    spec = SolveSpec(dt=0.01)
    run = Stepper(m, spec)
    for scale, t_last in ((1e150, -0.3), (1e3, -0.25)):
        big = np.full(grid.shape, scale)
        for path, name in ((shift(paths[1], 0.25), "path seed 1"),
                           (FrozenPath(lambda t: 0.0), "a frozen path")):
            cols = [Column(lambda: zero_state(grid), -0.5, 0.2, paths[0]),
                    Column(lambda: (big, big.copy()), -0.3, 0.2, path),
                    Column(lambda: zero_state(grid), -0.2, 0.2, paths[2])]
            with pytest.raises(DivergenceError) as err:  # and silently
                run.march(cols)
            assert str(err.value) == (f"non-finite state after step at t={t_last} (dt=0.01) "
                                      f"of the column from tau=-0.3 on {name}")
            seen = []
            with np.errstate(over="ignore", invalid="ignore"):
                evolve(big, big.copy(), -0.3, t_last, path, m, spec,
                       lambda t, u, v: seen.append((t, u.copy(), v.copy())))
                t, u, v = seen[-1]
                want_E = energy_E(u, v, m)
            assert err.value.t_last == t == t_last
            # at tau the march holds the start's sine coefficients, not its node values
            assert err.value.max_abs_u == pytest.approx(np.max(np.abs(u)), rel=1e-15)
            assert err.value.E == pytest.approx(want_E, rel=1e-15)


def test_evolve_argument_checks(small_model):
    path = generate_path(0, -1.0, 1.0, 0.01)
    spec = SolveSpec(dt=0.01)
    with pytest.raises(ValueError):
        evolve(*zero_state(small_model.grid), 1.0, 0.0, path, small_model, spec)
    with pytest.raises(PathRangeError):
        evolve(*zero_state(small_model.grid), 0.0, 5.0, path, small_model, spec)
    misaligned = SolveSpec(dt=0.003)
    with pytest.raises(ValueError, match="aligned"):
        evolve(*zero_state(small_model.grid), 0.0, 0.3, path, small_model, misaligned)


def test_observer_schedule(small_model):
    path = generate_path(1, -1.0, 1.0, 0.01)
    spec = SolveSpec(dt=0.01, record_every=10)
    seen = []
    evolve(*zero_state(small_model.grid), 0.0, 0.55, path, small_model, spec,
           observer=lambda t, u, v: seen.append(t))
    # start, every 10 steps, and the endpoint between two records, no duplicates
    assert seen[0] == 0.0
    assert seen[-1] == 0.55
    assert seen[:-1] == pytest.approx(np.arange(0.0, 0.51, 0.1))
    assert len(seen) == len(set(round(t, 12) for t in seen))


def test_final_time_is_exact(small_model):
    path = generate_path(1, -1.0, 1.0, 0.01)
    spec = SolveSpec(dt=0.01)
    seen = []
    u, z = evolve(*zero_state(small_model.grid), 0.0, 0.35, path, small_model, spec,
                  observer=lambda t, u, v: seen.append((t, u.copy(), v.copy())))
    # the returned state is the one recorded at t_end, with v taken back to z;
    # t_end is the one given, not 35 * 0.01 = 0.35000000000000003
    assert seen[-1][0] == 0.35
    assert np.array_equal(seen[-1][1], u)
    assert np.array_equal(reconstruct_z(seen[-1][2], 0.35, path, small_model), z)


@pytest.mark.parametrize("scheme", ["semi_implicit", "crank_nicolson_linear"])
def test_linear_decay_to_rest(scheme):
    # no forcing, no noise, f = 0: energy-norm decay toward zero
    grid = Grid(1, 5.0, 64)
    m = make_model(grid, nonlin=PowerNonlinearity(a=0.0),
                   g=FieldProfile("zero"), h=FieldProfile("zero"))
    u0 = np.exp(-grid.radius_sq())
    path = FrozenPath(lambda t: 0.0)
    spec = SolveSpec(dt=0.01, scheme=scheme)
    norms = [float(np.max(np.abs(evolve(u0, np.zeros(grid.shape), 0.0, T, path, m, spec)[0])))
             for T in (5.0, 10.0, 20.0)]
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] < 1e-2 * float(np.max(np.abs(u0)))


def test_reconstruct_z(small_model):
    path = generate_path(2, -1.0, 1.0, 0.01)
    rng = np.random.Generator(np.random.Philox(key=8))
    u = rng.standard_normal(small_model.grid.shape)
    v = rng.standard_normal(small_model.grid.shape)
    z = reconstruct_z(v, 0.5, path, small_model)
    expected = v + small_model.h * path.evaluate(0.5)
    assert np.array_equal(z, expected)


def test_pullback_start_matches_forward_on_shifted_path(small_model):
    # Phi(t, theta_{-t} w, x) computed pullback-style equals the forward solve
    # driven by the pre-shifted path
    t_len = 1.0
    spec = SolveSpec(dt=0.01)
    path = generate_path(3, -2.0, 2.0, 0.01)
    rng = np.random.Generator(np.random.Philox(key=9))
    u0 = rng.standard_normal(small_model.grid.shape)
    z0 = rng.standard_normal(small_model.grid.shape)

    forward = shift(path, -t_len)
    (u_pb, z_pb), (u_fw, z_fw) = Stepper(small_model, spec).march(
        [Column(lambda: (u0, z0), -t_len, 0.0, path),
         Column(lambda: (u0, z0), 0.0, t_len, forward)])
    assert np.allclose(u_pb, u_fw, rtol=1e-12, atol=1e-12)
    assert np.allclose(z_pb, z_fw, rtol=1e-12, atol=1e-12)


def test_march_rejects_negative_length(small_model):
    spec = SolveSpec(dt=0.01)
    path = generate_path(0, -1.0, 1.0, 0.01)
    u0, z0 = zero_state(small_model.grid)
    with pytest.raises(ValueError):
        Stepper(small_model, spec).march([Column(lambda: (u0, z0), 0.0, -1.0, path)])
