"""The ensemble march: a batch of columns advances exactly as each column
would alone under the step's textbook formulas in the march's coordinates,
and to roundoff as on the nodes with the Laplacian matrix; a column starts
from (u, z) and ends as (u, z), the noise lookup follows its node rule, t_end
is hit exactly, and an experiment factorises its implicit solve once."""
import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rdawave.solver
from rdawave.experiments import (TemperedFamilySpec, absorption_experiment,
                                 cocycle_experiment, product_norm_sq)
from rdawave.grid import Grid, laplacian_matrix
from rdawave.model import PowerNonlinearity, make_model
from rdawave.paths import _NODE_SNAP, FrozenPath, generate_path, shift
from rdawave.solver import (SCHEMES, Column, SolveSpec, Stepper, evolve, implicit_solve,
                            reconstruct_z, sine_coordinates, step_count)

DT = 0.01
PATHS = {seed: generate_path(seed, -1.0, 1.0, DT) for seed in range(3)}
GRIDS = {1: Grid(1, 4.0, 12), 2: Grid(2, 4.0, 5), 3: Grid(3, 4.0, 5)}
# (dim, f switched off): the cubic f, and a = b = 0 as in the modal oracle
MODELS = {(dim, off): make_model(grid, nonlin=PowerNonlinearity(a=0.0 if off else 1.0))
          for dim, grid in GRIDS.items() for off in (False, True)}


class Recorder:
    def __init__(self):
        self.records = []

    def __call__(self, t, u, v):
        self.records.append((t, u.copy(), v.copy()))


def columns(model, starts):
    """One column per (seed, tau, t_end), with its own initial data and recorder."""
    cols = []
    for i, (seed, tau, t_end) in enumerate(starts):
        rng = np.random.Generator(np.random.Philox(key=i))
        u, z = (0.5 * rng.standard_normal(model.grid.shape) for _ in range(2))
        cols.append(Column(u, z, tau, t_end, PATHS[seed], Recorder()))
    return cols


def on_or_off_phase(steps, frac):
    """steps*DT, or that moved off the dt grid by frac*DT."""
    return (steps + frac) * DT


start = st.tuples(st.integers(0, 2), st.integers(0, 60), st.sampled_from([0.0, 0.0, 0.25, 0.5]),
                  st.integers(0, 30), st.sampled_from([0.0, 0.0, 0.5]))


def coordinates(model, kind):
    """(S, solve_for, apply_A) of one set of coordinates, written as the
    textbook has them: S maps node values in and out (its own inverse),
    solve_for(a, coef) solves ((a + coef*lam') I - coef*Laplacian_h) x = rhs
    and apply_A(x) is A·x.  `sine`: orthonormal DST-I coefficients, where
    both are diagonal; `stencil`: the nodes, LU and the 3-point stencil (1-D);
    `matrix`: the nodes, LU and the Laplacian matrix."""
    grid, lam_prime = model.grid, model.lam_prime
    if kind == "sine":
        S, mu = sine_coordinates(grid)
        eig = lam_prime + mu
        return S, lambda a, coef: lambda x: x / (a + coef * eig), lambda x: eig * x

    def solve_for(a, coef):
        return implicit_solve(grid, a, coef, lam_prime)

    if kind == "stencil":
        h2 = grid.spacing ** 2

        def apply_A(x):
            padded = np.pad(x, ((0, 0), (1, 1)))
            return (lam_prime + 2.0 / h2) * x - (padded[:, :-2] + padded[:, 2:]) / h2
    else:
        lap = laplacian_matrix(grid)

        def apply_A(x):
            return lam_prime * x - (lap @ x.T).T
    return (lambda x: x), solve_for, apply_A


def march_coordinates(model):
    """The coordinates a `Stepper` marches in: the nodes for a 1-D run with
    f switched on, sine coefficients for every other run."""
    nonlinear = model.nonlin.a != 0.0 or model.nonlin.b != 0.0
    return "stencil" if model.grid.dim == 1 and nonlinear else "sine"


def reference_step(model, scheme, ops, solve, u, v, dt, w):
    """One step by the schemes' textbook formulas in the coordinates of
    `ops`: a fresh f on the nodes (and CN's u_half) whatever a and b are,
    both A·u applies, and every constant computed where it is used."""
    S, _, apply_A = ops
    h, g = S(model.h.ravel()), S(model.g.ravel())
    delta, alpha = model.delta, model.alpha

    if scheme == "semi_implicit":
        b = 1.0 + (alpha - delta) * dt
        fu = S(model.nonlin.f(S(u)))
        r_u = u + dt * h * w
        r_v = v + dt * (g - fu + (delta - alpha) * h * w)
        u_new = solve(r_u + (dt / b) * r_v)
        v_new = (r_v - dt * apply_A(u_new)) / b
    else:
        b = 1.0 + (alpha - delta) * dt / 2.0
        u_half = u + 0.5 * dt * (-delta * u + v + h * w)
        fu = S(model.nonlin.f(S(u_half)))
        r_u = (1.0 - delta * dt / 2.0) * u + 0.5 * dt * v + dt * h * w
        r_v = ((1.0 - (alpha - delta) * dt / 2.0) * v
               - 0.5 * dt * apply_A(u)
               + dt * (g - fu + (delta - alpha) * h * w))
        u_new = solve(r_u + (dt / (2.0 * b)) * r_v)
        v_new = (r_v - 0.5 * dt * apply_A(u_new)) / b
    return u_new, v_new


def single_run(model, spec, col, kind):
    """One column marched alone by a plain loop of `reference_step` in the
    coordinates `kind`: `evaluate` per step, with the record schedule and
    the shortened final step that `evolve` has always had.  The state enters
    as S of its node values, and the tau record is of the node values
    themselves; every later record and the end are S of the state.  The
    reference for the step's arithmetic and for the march's grouping,
    staggering and lookups.  Returns the final u and v (not z), on the
    nodes, and the records."""
    path, tau, t_end = col.path, col.tau, col.t_end
    ops = coordinates(model, kind)
    S, solve_for, _ = ops
    u = col.u.reshape(1, -1)
    v = (col.z - model.h * path.evaluate(tau)).reshape(1, -1)
    records = []
    solves = {}

    def advance(u, v, dt, w):
        if dt not in solves:
            if spec.scheme == "semi_implicit":
                b = 1.0 + (model.alpha - model.delta) * dt
                a, coef = 1.0 + model.delta * dt, dt * dt / b
            else:
                b = 1.0 + (model.alpha - model.delta) * dt / 2.0
                a, coef = 1.0 + model.delta * dt / 2.0, dt * dt / (4.0 * b)
            solves[dt] = solve_for(a, coef)
        return reference_step(model, spec.scheme, ops, solves[dt], u, v, dt, w)

    def record(t, u_nodes, v_nodes):
        records.append((t, u_nodes.reshape(col.u.shape).copy(),
                        v_nodes.reshape(col.u.shape).copy()))

    def sample(t_start, dt):
        w = path.evaluate(t_start + 0.5 * dt if spec.scheme != "semi_implicit" else t_start)
        return np.array([[w]])

    record(tau, u, v)
    if t_end == tau:
        return u, v, records
    u, v = S(u), S(v)
    n_full = int(math.floor((t_end - tau) / spec.dt + 1e-9))
    rem = (t_end - tau) - n_full * spec.dt
    rem = rem if rem > 1e-9 * max(1.0, abs(tau), abs(t_end)) else 0.0
    for i in range(n_full):
        u, v = advance(u, v, spec.dt, sample(tau + i * spec.dt, spec.dt))
        if (i + 1) % spec.record_every == 0 and not (i + 1 == n_full and rem == 0.0):
            record(tau + (i + 1) * spec.dt, S(u), S(v))
    if rem > 0.0:
        u, v = advance(u, v, rem, sample(tau + n_full * spec.dt, rem))
    u, v = S(u), S(v)
    record(t_end, u, v)
    return u, v, records


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), f_off=st.booleans(), scheme=st.sampled_from(SCHEMES),
       record_every=st.integers(1, 7), width=st.integers(1, 5),
       draws=st.lists(start, min_size=1, max_size=7))
# a zero-length column (tau = t_end = 0) joins a sine-coordinate group as its
# last step ends: it is never stepped, so it returns the node values it came with
@example(dim=2, f_off=False, scheme="semi_implicit", record_every=1, width=5,
         draws=[(0, 3, 0.0, 2, 0.0), (1, 0, 0.0, 0, 0.0)])
def test_march_equals_separate_single_column_runs(dim, f_off, scheme, record_every, width,
                                                  draws):
    model = MODELS[dim, f_off]
    spec = SolveSpec(dt=DT, scheme=scheme, record_every=record_every)
    starts = [(seed, -on_or_off_phase(k, a), on_or_off_phase(m, b))
              for seed, k, a, m, b in draws]
    run = Stepper(model, spec)
    run.width = width  # also split groups into several marches
    cols = columns(model, starts)
    for col, (final_u, final_z) in zip(cols, run.march(cols)):
        u, v, want = single_run(model, spec, col, march_coordinates(model))
        got = col.observer.records
        # the returned state is the one recorded at t_end, with v taken back to z
        assert got[-1][0] == col.t_end
        assert np.array_equal(got[-1][1], final_u) and np.array_equal(
            reconstruct_z(got[-1][2], col.t_end, col.path, model), final_z)
        assert np.array_equal(final_u.ravel(), u[0])
        assert np.array_equal(final_z, reconstruct_z(v[0].reshape(model.grid.shape),
                                                     col.t_end, col.path, model))
        assert [r[0] for r in got] == [r[0] for r in want]
        assert all(np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])
                   for a, b in zip(got, want))


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), f_off=st.booleans(), scheme=st.sampled_from(SCHEMES),
       record_every=st.integers(1, 7),
       draws=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 60),
                                st.sampled_from([0.0, 0.25, 0.5]), st.integers(0, 30),
                                st.sampled_from([0.0, 0.5, 0.37])),
                      min_size=1, max_size=5))
def test_march_agrees_with_the_textbook_step_on_the_nodes(dim, f_off, scheme, record_every,
                                                           draws):
    """Whatever coordinates the march picks, every record and every final
    state is within 1e-12 relative in H1 x L2 of the plain on-nodes march
    with the Laplacian matrix, over staggered taus and shortened final steps."""
    model = MODELS[dim, f_off]
    grid = model.grid
    spec = SolveSpec(dt=DT, scheme=scheme, record_every=record_every)
    starts = [(seed, -on_or_off_phase(k, a), on_or_off_phase(m, b))
              for seed, k, a, m, b in draws]
    cols = columns(model, starts)
    for col, (final_u, final_z) in zip(cols, Stepper(model, spec).march(cols)):
        u, v, want = single_run(model, spec, col, "matrix")
        got = col.observer.records
        want_z = reconstruct_z(v[0].reshape(grid.shape), col.t_end, col.path, model)
        pairs = [(g[1], g[2], w[1], w[2]) for g, w in zip(got, want)]
        pairs.append((final_u, final_z, u[0].reshape(grid.shape), want_z))
        assert [r[0] for r in got] == [r[0] for r in want]
        for gu, gv, wu, wv in pairs:
            assert product_norm_sq(grid, gu - wu, gv - wv) <= (
                1e-24 * product_norm_sq(grid, wu, wv))


@settings(max_examples=40, deadline=None)
@given(tau=st.floats(-1.0, 0.0), length=st.floats(0.0, 0.3), dt=st.floats(0.005, 0.05),
       scheme=st.sampled_from(SCHEMES))
def test_final_time_is_exact_for_random_intervals(tau, length, dt, scheme):
    model = MODELS[1, False]
    t_end = tau + length
    seen = []
    final_u, _ = evolve(np.zeros(model.grid.shape), np.zeros(model.grid.shape), tau, t_end,
                        FrozenPath(math.sin), model, SolveSpec(dt=dt, scheme=scheme),
                        observer=lambda t, u, v: seen.append((t, u.copy())))
    # the returned state is the one recorded at t_end
    assert np.array_equal(seen[-1][1], final_u)
    assert seen[0][0] == tau and seen[-1][0] == t_end
    n_full, rem = step_count(tau, t_end, dt)
    assert n_full >= 0 and 0.0 <= rem < dt


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]), scheme=st.sampled_from(SCHEMES),
       draws=st.lists(st.tuples(st.integers(0, 2), st.sampled_from([0.25, -0.5, 0.123, 0.37]),
                                st.integers(0, 40), st.integers(1, 40), st.floats(0.01, 0.99)),
                      min_size=1, max_size=4))
def test_march_starts_from_z_and_returns_z(dim, scheme, draws):
    """A column starts from (u0, z0) and the march returns (u, z): the first
    v an observer sees is z0 - h*omega(tau), and the returned z is the
    observed v at t_end taken back by `reconstruct_z`, bit for bit, on
    shifted paths whose omega(t_end) is nonzero and at off-grid t_end."""
    model = MODELS[dim, False]
    cols = []
    for i, (seed, s, k, m, frac) in enumerate(draws):
        path = shift(PATHS[seed], s)
        tau, t_end = -k * DT, on_or_off_phase(m, frac)
        assume(path.evaluate(t_end) != 0.0)
        rng = np.random.Generator(np.random.Philox(key=100 + i))
        u0, z0 = (0.5 * rng.standard_normal(model.grid.shape) for _ in range(2))
        cols.append(Column(u0, z0, tau, t_end, path, Recorder()))
    finals = Stepper(model, SolveSpec(dt=DT, scheme=scheme)).march(cols)
    for col, (u, z) in zip(cols, finals):
        first, last = col.observer.records[0], col.observer.records[-1]
        assert first[0] == col.tau and last[0] == col.t_end
        assert np.array_equal(first[2], col.z - model.h * col.path.evaluate(col.tau))
        assert np.array_equal(last[1], u)
        assert np.array_equal(reconstruct_z(last[2], col.t_end, col.path, model), z)
        assert not np.array_equal(last[2], z)  # the two ends really differ


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2), node=st.integers(0, 200),
       offset=st.sampled_from([0.0, 1e-12, -1e-12, 1e-7, 0.3, 0.5, 0.999]),
       s=st.sampled_from([0.0, 0.25, -0.5, 0.123]))
def test_evaluate_follows_the_node_rule(seed, node, offset, s):
    """The one lookup, on an array and on a float, on a path and on its
    shift, against the rule written out: the node value within `_NODE_SNAP`
    of a node, else linear interpolation between the two nodes around t."""
    base = PATHS[seed]

    def rule(t):
        pos = (t - base.t_lo) / base.dt_path
        i = round(pos)
        if abs(pos - i) <= _NODE_SNAP and 0 <= i < len(base.values):
            return float(base.values[i])
        j = math.floor(pos)
        theta = pos - j
        return float((1.0 - theta) * base.values[j] + theta * base.values[j + 1])

    for path, expected in ((base, rule), (shift(base, s), lambda t: rule(t + s) - rule(s))):
        t = path.t_lo + (node + offset) * DT
        if t > path.t_hi:
            continue
        ts = [t, path.t_lo, path.t_hi, 0.0]
        assert path.evaluate(np.array(ts)).tolist() == [expected(x) for x in ts]
        one = path.evaluate(t)
        assert type(one) is float and one == expected(t)


def test_experiment_factorises_once_per_step_length(monkeypatch):
    model = make_model(Grid(1, 20.0, 64))
    spec = SolveSpec(dt=DT, record_every=20)
    real = rdawave.solver.spla
    calls = []

    class CountingSpla:
        def __getattr__(self, name):
            return getattr(real, name)

        def splu(self, *args, **kwargs):
            calls.append(1)
            return real.splu(*args, **kwargs)

    monkeypatch.setattr(rdawave.solver, "spla", CountingSpla())
    cocycle_experiment([(0.2, 0.2), (0.2, 0.3), (0.3, 0.2)], [0, 1], model, spec)
    assert len(calls) == 1
    calls.clear()
    # -0.505 and -0.7525 end with distinct shortened steps
    paths = [generate_path(s, -1.0, 0.0, DT) for s in (0, 1)]
    absorption_experiment(TemperedFamilySpec(), [-0.2, -0.4, -0.505, -0.7525],
                          paths, model, spec)
    assert len(calls) == 3
