"""The ensemble march: a batch of columns advances exactly as each column
would alone, the noise lookup matches `evaluate`, t_end is hit exactly, and
an experiment factorises its implicit solve once."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import rdawave.solver
from rdawave.experiments import (TemperedFamilySpec, absorption_experiment,
                                 cocycle_experiment)
from rdawave.grid import Grid
from rdawave.model import make_model
from rdawave.paths import FrozenPath, generate_path, shift
from rdawave.solver import SCHEMES, Column, SolveSpec, Stepper, evolve, step, step_count

DT = 0.01
PATHS = {seed: generate_path(seed, -1.0, 1.0, DT) for seed in range(3)}
MODELS = {1: make_model(Grid(1, 4.0, 12)), 2: make_model(Grid(2, 4.0, 5))}


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
        u, v = (0.5 * rng.standard_normal(model.grid.shape) for _ in range(2))
        cols.append(Column(u, v, tau, t_end, PATHS[seed], [Recorder()]))
    return cols


def on_or_off_phase(steps, frac):
    """steps*DT, or that moved off the dt grid by frac*DT."""
    return (steps + frac) * DT


start = st.tuples(st.integers(0, 2), st.integers(0, 60), st.sampled_from([0.0, 0.0, 0.25, 0.5]),
                  st.integers(0, 30), st.sampled_from([0.0, 0.0, 0.5]))


def single_run(run, col):
    """One column marched alone by a plain loop: `evaluate` per step, with the
    record schedule and the shortened final step that `evolve` has always
    had.  The reference for the march's grouping, staggering and lookups."""
    spec, path, tau, t_end = run.spec, col.path, col.tau, col.t_end
    u, v = col.u.reshape(1, -1), col.v.reshape(1, -1)
    records = []

    def record(t):
        records.append((t, u.reshape(col.u.shape).copy(), v.reshape(col.u.shape).copy()))

    def sample(t_start, dt):
        w = path.evaluate(t_start + 0.5 * dt if spec.scheme != "semi_implicit" else t_start)
        return np.array([[w]])

    record(tau)
    if t_end == tau:
        return u, v, records
    n_full = int(math.floor((t_end - tau) / spec.dt + 1e-9))
    rem = (t_end - tau) - n_full * spec.dt
    rem = rem if rem > 1e-9 * max(1.0, abs(tau), abs(t_end)) else 0.0
    for i in range(n_full):
        u, v = step(run, u, v, spec.dt, sample(tau + i * spec.dt, spec.dt))
        if (i + 1) % spec.record_every == 0 and not (i + 1 == n_full and rem == 0.0):
            record(tau + (i + 1) * spec.dt)
    if rem > 0.0:
        u, v = step(run, u, v, rem, sample(tau + n_full * spec.dt, rem))
    record(t_end)
    return u, v, records


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]), scheme=st.sampled_from(SCHEMES),
       record_every=st.integers(1, 7), width=st.integers(1, 5),
       draws=st.lists(start, min_size=1, max_size=7))
def test_march_equals_separate_single_column_runs(dim, scheme, record_every, width, draws):
    model = MODELS[dim]
    spec = SolveSpec(dt=DT, scheme=scheme, record_every=record_every)
    starts = [(seed, -on_or_off_phase(k, a), on_or_off_phase(m, b))
              for seed, k, a, m, b in draws]
    run = Stepper(model, spec)
    run.width = width  # also split groups into several marches
    cols = columns(model, starts)
    for col, (final_u, final_v) in zip(cols, run.march(cols)):
        u, v, want = single_run(Stepper(model, spec), col)
        got = col.observers[0].records
        # the returned state is the one recorded at t_end
        assert got[-1][0] == col.t_end
        assert np.array_equal(got[-1][1], final_u) and np.array_equal(got[-1][2], final_v)
        assert np.array_equal(final_u.ravel(), u[0])
        assert np.array_equal(final_v.ravel(), v[0])
        assert [r[0] for r in got] == [r[0] for r in want]
        assert all(np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])
                   for a, b in zip(got, want))


@settings(max_examples=40, deadline=None)
@given(tau=st.floats(-1.0, 0.0), length=st.floats(0.0, 0.3), dt=st.floats(0.005, 0.05),
       scheme=st.sampled_from(SCHEMES))
def test_final_time_is_exact_for_random_intervals(tau, length, dt, scheme):
    model = MODELS[1]
    t_end = tau + length
    seen = []
    final_u, _ = evolve(np.zeros(model.grid.shape), np.zeros(model.grid.shape), tau, t_end,
                        FrozenPath(math.sin), model, SolveSpec(dt=dt, scheme=scheme),
                        observers=[lambda t, u, v: seen.append((t, u.copy()))])
    # the returned state is the one recorded at t_end
    assert np.array_equal(seen[-1][1], final_u)
    assert seen[0][0] == tau and seen[-1][0] == t_end
    n_full, rem = step_count(tau, t_end, dt)
    assert n_full >= 0 and 0.0 <= rem < dt


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2), node=st.integers(0, 200),
       offset=st.sampled_from([0.0, 1e-12, -1e-12, 1e-7, 0.3, 0.5, 0.999]),
       s=st.sampled_from([0.0, 0.25, -0.5, 0.123]))
def test_evaluate_exact_matches_evaluate(seed, node, offset, s):
    base = PATHS[seed]
    for path in (base, shift(base, s)):
        t = path.t_lo + (node + offset) * DT
        if t > path.t_hi:
            continue
        ts = np.array([t, path.t_lo, path.t_hi, 0.0])
        assert list(path.evaluate_exact(ts)) == [path.evaluate(float(x)) for x in ts]


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
