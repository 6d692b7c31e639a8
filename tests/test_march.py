"""The ensemble march: a batch of columns advances exactly as each column
would alone under the step's textbook formulas in the march's coordinates,
and to roundoff as on the nodes with the Laplacian matrix; a column starts
from (u, z) and ends as (u, z), the noise lookup follows its node rule, a
whole-step run ends exactly at t_end and any other run fails before it
starts, and an experiment factorises its implicit solve once."""
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rdawave.solver
from rdawave.experiments import (TemperedFamilySpec, absorption_experiment,
                                 cocycle_experiment, product_norm_sq, tail_experiment)
from rdawave.grid import Grid, laplacian_matrix
from rdawave.model import PowerNonlinearity, make_model
from rdawave.paths import _NODE_SNAP, FrozenPath, PathRangeError, generate_path, shift
from rdawave.solver import (GROUP_NODES, SCHEMES, Column, SolveSpec, Stepper, evolve,
                            implicit_solve, reconstruct_z, sine_coordinates, whole_steps)
from test_package import fresh_env

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


def columns(model, starts, dt=DT, paths=PATHS):
    """One column per (seed, k, m), from tau = -k*dt to t_end = m*dt, with
    its own initial data and recorder."""
    cols = []
    for i, (seed, k, m) in enumerate(starts):
        rng = np.random.Generator(np.random.Philox(key=i))
        u, z = (0.5 * rng.standard_normal(model.grid.shape) for _ in range(2))
        cols.append(Column(lambda u=u, z=z: (u, z), -k * dt, m * dt, paths[seed], Recorder()))
    return cols


# a column marches at least one step: k + m > 0
start = st.tuples(st.integers(0, 2), st.integers(0, 60), st.integers(0, 30)).filter(
    lambda d: d[1] + d[2] > 0)


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
    coordinates `kind`: `evaluate` per step, with the record schedule that
    `evolve` has always had.  The state enters as S of its node values, and
    the tau record is of the node values themselves; every later record and
    the end are S of the state.  The reference for the step's arithmetic and
    for the march's grouping, staggering and lookups.  Returns the final u
    and v (not z), on the nodes, and the records."""
    path, tau, t_end = col.path, col.tau, col.t_end
    ops = coordinates(model, kind)
    S, solve_for, _ = ops
    u0, z0 = col.start()
    u = u0.reshape(1, -1)
    v = (z0 - model.h * path.evaluate(tau)).reshape(1, -1)
    records = []
    dt = spec.dt
    if spec.scheme == "semi_implicit":
        b = 1.0 + (model.alpha - model.delta) * dt
        solve = solve_for(1.0 + model.delta * dt, dt * dt / b)
    else:
        b = 1.0 + (model.alpha - model.delta) * dt / 2.0
        solve = solve_for(1.0 + model.delta * dt / 2.0, dt * dt / (4.0 * b))

    def record(t, u_nodes, v_nodes):
        records.append((t, u_nodes.reshape(u0.shape).copy(),
                        v_nodes.reshape(u0.shape).copy()))

    def sample(t_start):
        w = path.evaluate(t_start + 0.5 * dt if spec.scheme != "semi_implicit" else t_start)
        return np.array([[w]])

    record(tau, u, v)
    u, v = S(u), S(v)
    n = round((t_end - tau) / dt)
    for i in range(n):
        u, v = reference_step(model, spec.scheme, ops, solve, u, v, dt, sample(tau + i * dt))
        if (i + 1) % spec.record_every == 0 and i + 1 < n:
            record(tau + (i + 1) * dt, S(u), S(v))
    u, v = S(u), S(v)
    record(t_end, u, v)
    return u, v, records


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), f_off=st.booleans(), scheme=st.sampled_from(SCHEMES),
       record_every=st.integers(1, 7), width=st.integers(1, 5),
       draws=st.lists(start, min_size=1, max_size=7))
def test_march_equals_separate_single_column_runs(dim, f_off, scheme, record_every, width,
                                                  draws):
    model = MODELS[dim, f_off]
    spec = SolveSpec(dt=DT, scheme=scheme, record_every=record_every)
    run = Stepper(model, spec)
    run.width = width  # also split groups into several marches
    cols = columns(model, draws)
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
       record_every=st.integers(1, 7), draws=st.lists(start, min_size=1, max_size=5))
def test_march_agrees_with_the_textbook_step_on_the_nodes(dim, f_off, scheme, record_every,
                                                           draws):
    """Whatever coordinates the march picks, every record and every final
    state is within 1e-12 relative in H1 x L2 of the plain on-nodes march
    with the Laplacian matrix, over staggered taus and ends."""
    model = MODELS[dim, f_off]
    grid = model.grid
    spec = SolveSpec(dt=DT, scheme=scheme, record_every=record_every)
    cols = columns(model, draws)
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


FROZEN = {seed: FrozenPath(lambda t, seed=seed: math.sin((seed + 1) * t)) for seed in range(3)}


@settings(max_examples=40, deadline=None)
@given(dt=st.floats(0.005, 0.05), scheme=st.sampled_from(SCHEMES),
       record_every=st.integers(1, 5), draws=st.lists(start, min_size=1, max_size=4))
def test_final_time_is_exact_for_random_intervals(dt, scheme, record_every, draws):
    """Runs from tau = -k*dt to t_end = m*dt at any dt: each starts with a
    record at tau and ends with one at t_end exactly, holding the state it
    returns, and the march of all of them equals each run alone (`evolve`)."""
    model = MODELS[1, False]
    spec = SolveSpec(dt=dt, scheme=scheme, record_every=record_every)
    cols = columns(model, draws, dt, FROZEN)
    for col, (final_u, final_z) in zip(cols, Stepper(model, spec).march(cols)):
        seen = col.observer.records
        assert seen[0][0] == col.tau and seen[-1][0] == col.t_end
        assert np.array_equal(seen[-1][1], final_u)
        alone = Recorder()
        u, z = evolve(*col.start(), col.tau, col.t_end, col.path, model, spec, alone)
        assert np.array_equal(u, final_u) and np.array_equal(z, final_z)
        assert [r[0] for r in alone.records] == [r[0] for r in seen]
        assert all(np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])
                   for a, b in zip(alone.records, seen))


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]), scheme=st.sampled_from(SCHEMES),
       draws=st.lists(start, max_size=4), off=start, frac=st.sampled_from([0.25, 0.5, 0.37]),
       at=st.integers(0, 4), end=st.booleans())
def test_a_run_off_the_step_grid_fails_before_any_observer_fires(dim, scheme, draws, off, frac,
                                                                 at, end):
    """One column whose tau or t_end is off the step grid by frac*dt, among
    whole-step ones: the march raises ValueError and no observer has fired."""
    model = MODELS[dim, False]
    cols = columns(model, draws + [off])
    bad = cols.pop()
    if end:
        bad.t_end += frac * DT
    else:
        bad.tau -= frac * DT
    cols.insert(min(at, len(cols)), bad)
    with pytest.raises(ValueError, match="is not a whole number of steps of dt=0.01"):
        Stepper(model, SolveSpec(dt=DT, scheme=scheme)).march(cols)
    assert all(col.observer.records == [] for col in cols)


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]), scheme=st.sampled_from(SCHEMES),
       draws=st.lists(start, max_size=4), at=st.integers(0, 4), tau=st.integers(-3, 3),
       length=st.integers(-3, 0), gap=st.floats(0.0, 0.5e-9))
def test_a_column_of_no_steps_fails_before_any_start_or_observer(dim, scheme, draws, at, tau,
                                                                  length, gap):
    """A column whose t_end is not a step or more after its tau, among good
    ones, is refused even when a gap under roundoff makes t_end > tau:
    `march` and `evolve` raise ValueError naming both times before any
    column's start has run or any observer has fired."""
    model = MODELS[dim, False]
    spec = SolveSpec(dt=DT, scheme=scheme)
    cols = columns(model, draws + [(0, 1, 1)])
    bad = cols.pop()
    bad.tau, bad.t_end = tau * DT, (tau + length) * DT + gap * DT
    cols.insert(min(at, len(cols)), bad)
    u0, z0 = bad.start()
    started = []
    for col in cols:
        col.start = lambda start=col.start: started.append(1) or start()
    refusal = re.escape(f"tau={bad.tau} must be at least one step of dt={DT} "
                        f"before t_end={bad.t_end}")
    with pytest.raises(ValueError, match=refusal):
        Stepper(model, spec).march(cols)
    with pytest.raises(ValueError, match=refusal):
        evolve(u0, z0, bad.tau, bad.t_end, bad.path, model, spec, bad.observer)
    assert started == []
    assert all(col.observer.records == [] for col in cols)


@pytest.mark.parametrize("scheme,tau,t_end", [("semi_implicit", 0.0, 1.0 + 5e-10),
                                              ("crank_nicolson_linear", -1.0 - 5e-10, 0.0)])
def test_a_column_off_its_path_fails_before_any_start_or_observer(scheme, tau, t_end):
    """A column that is whole steps long but whose t_end (or tau) lies past
    its path's end by more than `evaluate` snaps is refused with the
    path's own `PathRangeError` before any column's start has run or any
    observer has fired: the march reads omega at both times."""
    model = MODELS[1, False]
    path = PATHS[0]  # on [-1, 1]
    assert whole_steps(t_end - tau, DT)
    events = []

    def start():
        events.append("start")
        return np.zeros(model.grid.shape), np.zeros(model.grid.shape)

    cols = [Column(start, t0, t1, path, lambda *record: events.append("record"))
            for t0, t1 in ((-0.5, 0.0), (tau, t_end))]
    off = t_end if t_end > 0.0 else tau
    with pytest.raises(PathRangeError, match=re.escape(f"t={off} outside path range [-1.0, 1.0]")):
        Stepper(model, SolveSpec(dt=DT, scheme=scheme)).march(cols)
    assert events == []


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]), scheme=st.sampled_from(SCHEMES),
       draws=st.lists(st.tuples(st.integers(0, 2), st.sampled_from([0.25, -0.5, 0.123, 0.37]),
                                st.integers(0, 40), st.integers(1, 40)),
                      min_size=1, max_size=4))
def test_march_starts_from_z_and_returns_z(dim, scheme, draws):
    """A column starts from (u0, z0) and the march returns (u, z): the first
    v an observer sees is z0 - h*omega(tau), and the returned z is the
    observed v at t_end taken back by `reconstruct_z`, bit for bit, on
    shifted paths whose omega(t_end) is nonzero."""
    model = MODELS[dim, False]
    cols = []
    for i, (seed, s, k, m) in enumerate(draws):
        path = shift(PATHS[seed], s)
        tau, t_end = -k * DT, m * DT
        assume(path.evaluate(t_end) != 0.0)
        rng = np.random.Generator(np.random.Philox(key=100 + i))
        u0, z0 = (0.5 * rng.standard_normal(model.grid.shape) for _ in range(2))
        cols.append(Column(lambda u0=u0, z0=z0: (u0, z0), tau, t_end, path, Recorder()))
    finals = Stepper(model, SolveSpec(dt=DT, scheme=scheme)).march(cols)
    for col, (u, z) in zip(cols, finals):
        first, last = col.observer.records[0], col.observer.records[-1]
        assert first[0] == col.tau and last[0] == col.t_end
        assert np.array_equal(first[2], col.start()[1] - model.h * col.path.evaluate(col.tau))
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

    for path, s_path, expected in ((base, 0.0, rule),
                                   (shift(base, s), s, lambda t: rule(t + s) - rule(s))):
        t_lo, t_hi = base.t_lo - s_path, base.t_hi - s_path  # the path's range
        t = t_lo + (node + offset) * DT
        if t > t_hi:
            continue
        ts = [t, t_lo, t_hi, 0.0]
        assert path.evaluate(np.array(ts)).tolist() == [expected(x) for x in ts]
        one = path.evaluate(t)
        assert type(one) is float and one == expected(t)


def test_experiment_factorises_once(monkeypatch):
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
    paths = [generate_path(s, -1.0, 0.0, DT) for s in (0, 1)]
    absorption_experiment(TemperedFamilySpec(), [-0.2, -0.4, -0.5, -0.75], paths, model, spec)
    assert len(calls) == 1


def traced_peak(run):
    """The tracemalloc peak of `run()`, in bytes."""
    tracemalloc.start()
    run()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


# more nodes than GROUP_NODES: every group is one column
WIDE = make_model(Grid(2, 4.0, 91))


def test_march_builds_and_hands_over_states_one_group_at_a_time():
    """A column's start is called when the march reaches it, and every final
    state of a group is handed to `finish` before the next group starts;
    the march returns the finishes in the order given."""
    for model, width, ks in ((WIDE, None, [2, 6, 3, 1]), (MODELS[1, False], 2, [2, 6, 5, 1, 4])):
        run = Stepper(model, SolveSpec(dt=DT))
        if width is None:
            assert model.grid.n ** model.grid.dim > GROUP_NODES and run.width == 1
        else:
            run.width = width
        events = []

        def column(i, k):
            def start():
                events.append(("start", i))
                return np.ones(model.grid.shape), np.zeros(model.grid.shape)

            def finish(u, z):
                events.append(("finish", i))
                return i
            return Column(start, -k * DT, 0.0, PATHS[0], finish=finish)

        assert run.march([column(i, k) for i, k in enumerate(ks)]) == list(range(len(ks)))
        # earliest start first; within a group each joins at its own tau
        order = sorted(range(len(ks)), key=lambda i: -ks[i])
        groups = [order[lo:lo + run.width] for lo in range(0, len(order), run.width)]
        assert events == [(e, i) for g in groups for e in ("start", "finish") for i in g]


def test_absorb_memory_does_not_grow_with_the_seed_panel():
    """The tracemalloc peak of an 8-seed absorb exceeds the 1-seed peak by
    less than one column's (u, z): each start state is built as its group
    starts and each final is reduced to its norm as its group ends."""
    spec = SolveSpec(dt=DT, record_every=2)
    paths = [generate_path(seed, -0.05, 0.0, DT) for seed in range(8)]

    def absorb(n):
        return absorption_experiment(TemperedFamilySpec(), [-0.02, -0.04], paths[:n], WIDE, spec)

    absorb(1)  # first-use imports outside the comparison
    assert traced_peak(lambda: absorb(8)) - traced_peak(lambda: absorb(1)) < 2 * WIDE.h.nbytes


@pytest.mark.parametrize("experiment", ["absorb", "tails"])
def test_later_groups_need_no_more_memory_than_the_first(experiment):
    """1-D n=2048 marches 4 columns a group, and its observers copy records
    into blocks of 8: 8 columns (two groups) peak less than one column's
    (u, z) above 4 columns (one group), as the first group's finals are
    reduced and its observers, once read, let their blocks go."""
    model = make_model(Grid(1, 40.0, 2048))
    spec = SolveSpec(dt=DT, record_every=2)
    assert Stepper(model, spec).width == 4
    taus = [-0.05, -0.1, -0.15, -0.2]
    paths = [generate_path(seed, -0.2, 0.0, DT) for seed in range(2)]

    def run(n):
        if experiment == "absorb":
            return absorption_experiment(TemperedFamilySpec(), taus, paths[:n], model, spec)
        return tail_experiment(1.0, [5.0, 10.0], taus, paths[:n], model, spec)

    run(1)  # first-use imports outside the comparison
    assert traced_peak(lambda: run(2)) - traced_peak(lambda: run(1)) < 2 * model.h.nbytes


def test_pullback_holds_one_state_per_seed():
    """1-D n=2048 marches 4 columns a group: pullback of 2 seeds from 8 taus
    (four groups) peaks less than one column's (u, z) above the same from 4
    taus (two groups), as each seed holds only its last t = 0 state, which
    the next column's decrement is taken against.  Both peaks are taken in
    a fresh interpreter, where no object an earlier test left alive counts."""
    script = f"""
import tracemalloc
from rdawave.experiments import TemperedFamilySpec, pullback_convergence_experiment
from rdawave.grid import Grid
from rdawave.model import make_model
from rdawave.paths import generate_path
from rdawave.solver import SolveSpec, Stepper

model = make_model(Grid(1, 40.0, 2048))
spec = SolveSpec(dt={DT}, record_every=2)
assert Stepper(model, spec).width == 4
taus = [-0.05, -0.1, -0.15, -0.2, -0.25, -0.3, -0.35, -0.4]
paths = [generate_path(seed, -0.4, 0.0, {DT}) for seed in range(2)]

def traced_peak(n):
    tracemalloc.start()
    pullback_convergence_experiment(TemperedFamilySpec(), taus[:n], paths, model, spec)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak

traced_peak(4)  # first-use imports outside the comparison
print(traced_peak(8) - traced_peak(4), 2 * model.h.nbytes)
"""
    done = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    rise, bound = map(int, done.stdout.split())
    assert rise < bound
