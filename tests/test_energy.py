"""Energy functional, production breakdown, and the identity residual audit."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rdawave import energy
from rdawave.energy import (PSI_TERM_NAMES, BlockObserver, EnergyObserver, energy_E,
                            energy_identity_residual, psi, tail_energy)
from rdawave.experiments import _exp_weighted_integral, product_norm_sq
from rdawave.grid import (Grid, _axis_diffs, cutoff_rho, grad_sq, inner, norm_l2,
                          tail_weighted_norms)
from rdawave.model import FieldProfile, PowerNonlinearity, make_model
from rdawave.paths import FrozenPath, generate_path, shift
from rdawave.solver import SCHEMES, SolveSpec, evolve, reconstruct_z


@pytest.fixture
def model():
    grid = Grid(1, 5.0, 64)
    return make_model(grid, g=FieldProfile("gaussian"), h=FieldProfile("gaussian"))


def random_state(grid, seed=0):
    """(u, v) at t = 0."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)


def test_energy_of_rest_state_is_zero(model):
    u, v = np.zeros(model.grid.shape), np.zeros(model.grid.shape)
    assert energy_E(u, v, model) == 0.0


def test_energy_formula(model):
    u, v = random_state(model.grid, 1)
    grid, vol = model.grid, model.grid.cell_volume
    expected = (norm_l2(grid, v) ** 2
                + model.lam_prime * norm_l2(grid, u) ** 2
                + grad_sq(grid, u)
                + 2.0 * float(np.sum(model.nonlin.F(u)) * vol))
    assert energy_E(u, v, model) == pytest.approx(expected, rel=1e-14)


def test_psi_has_ten_named_terms_summing_to_total(model):
    path = generate_path(0, -1.0, 1.0, 0.01)
    u, v = random_state(model.grid, 2)
    total, terms = psi(u, v, 0.37, path, model)
    assert tuple(terms) == PSI_TERM_NAMES
    assert len(terms) == 10
    scale = max(abs(v) for v in terms.values())
    assert abs(total - sum(terms.values())) <= 1e-12 * max(scale, 1.0)


def test_psi_noise_terms_vanish_without_noise(model):
    path = FrozenPath(lambda t: 0.0)
    u, v = random_state(model.grid, 3)
    _, terms = psi(u, v, 1.0, path, model)
    for name in ("noise_u", "noise_grad", "noise_f", "noise_v"):
        assert terms[name] == 0.0


def _records_for(dt, model, path, t_end=2.0, record_every=1):
    """(ts, E, Psi) of one run from a gaussian u0."""
    u0 = np.exp(-model.grid.radius_sq())
    obs = EnergyObserver(path, model)
    spec = SolveSpec(dt=dt, record_every=record_every)
    evolve(u0, np.zeros(model.grid.shape), 0.0, t_end, path, model, spec, observer=obs)
    return obs.ts, obs.E, obs.Psi


def test_identity_residual_decreases_with_dt():
    # linear regime: the residual of dE/dt + 4 sigma E = Psi is pure
    # discretization error and must shrink at the scheme's first order
    grid = Grid(1, 5.0, 64)
    m = make_model(grid, nonlin=PowerNonlinearity(a=0.0),
                   g=FieldProfile("zero"), h=FieldProfile("zero"))
    path = FrozenPath(lambda t: 0.0)
    maxes = []
    for dt in (0.02, 0.01, 0.005):
        res_diff, _ = energy_identity_residual(*_records_for(dt, m, path), m.sigma)
        maxes.append(np.max(np.abs(res_diff)))
    assert maxes[0] / maxes[1] > 1.7
    assert maxes[1] / maxes[2] > 1.7


def test_integral_residual_starts_at_zero(model):
    path = generate_path(0, -1.0, 5.0, 0.01)
    ts, E, Psi = _records_for(0.01, model, path)
    res_diff, res_int = energy_identity_residual(ts, E, Psi, model.sigma)
    assert res_int[0] == 0.0
    assert len(res_diff) == len(ts) - 1
    assert len(res_int) == len(ts)


def test_residual_requires_equally_spaced_records(model):
    path = FrozenPath(lambda t: 0.0)
    ts, E, Psi = _records_for(0.01, model, path, t_end=0.05)
    ts[1] += 0.003
    with pytest.raises(ValueError, match="equally spaced"):
        energy_identity_residual(ts, E, Psi, model.sigma)
    with pytest.raises(ValueError):
        energy_identity_residual(ts[:1], E[:1], Psi[:1], model.sigma)


def test_tail_energy_below_total_and_decreasing_in_k():
    grid = Grid(1, 20.0, 256)
    m = make_model(grid, g=FieldProfile("gaussian"), h=FieldProfile("gaussian"))
    u, v = random_state(grid, 4)
    total = product_norm_sq(grid, u, v)
    tails = [tail_energy(u, v, k, m) for k in (2.0, 5.0, 10.0)]
    assert all(0.0 <= t <= total * (1.0 + 1e-12) for t in tails)
    assert tails[0] > tails[1] > tails[2]


def test_energy_observer_collects_tails(model):
    path = generate_path(1, -1.0, 1.0, 0.01)
    obs = EnergyObserver(path, model, k_list=(1.0, 2.0))
    obs(0.0, *random_state(model.grid, 5))
    assert obs.k_list == (1.0, 2.0) and [len(col) for col in obs.tails] == [1, 1]
    assert obs.Psi[0] == pytest.approx(sum(obs.terms[0].values()), rel=1e-12)


def test_energy_observer_norm_z_is_the_norm_of_reconstruct_z(model):
    # on a shifted path omega(t) != 0 at the record times, so z differs from v
    path = shift(generate_path(2, -3.0, 3.0, 0.01), 1.25)
    obs = EnergyObserver(path, model)
    for i, t in enumerate((-0.5, 0.37, 1.0)):
        assert path.evaluate(t) != 0.0
        u, v = random_state(model.grid, 10 + i)
        obs(t, u, v)
        assert obs.norm_z_l2[-1] == norm_l2(model.grid, reconstruct_z(v, t, path, model))
        assert obs.norm_z_l2[-1] != norm_l2(model.grid, v)


# -- the record kernel against the textbook formulas, bit for bit --------------

def pad_diffs(grid, f, ax):
    """Forward differences with both boundary gaps, via zero padding."""
    pad = [(1, 1) if a == ax else (0, 0) for a in range(grid.dim)]
    return np.diff(np.pad(f, pad), axis=ax) / grid.spacing


def gap_weights(grid, k, ax):
    xs, h = grid.axis_coords(), grid.spacing
    mids = np.concatenate(([xs[0] - 0.5 * h], xs + 0.5 * h))
    axes = np.meshgrid(*[mids if a == ax else xs for a in range(grid.dim)], indexing="ij")
    return cutoff_rho(sum(a ** 2 for a in axes) / k ** 2)


def reference(u, v, w, model, k_list):
    """E, the Psi terms, the H1 x L2 tails and the snapshot norms, each
    computed on its own from its definition."""
    grid, vol, lp = model.grid, model.grid.cell_volume, model.lam_prime
    sig, dl, al = model.sigma, model.delta, model.alpha
    h = model.h
    grad_uu = grad_uh = 0.0
    for ax in range(grid.dim):
        grad_uu += float(np.sum(pad_diffs(grid, u, ax) ** 2))
        grad_uh += float(np.sum(pad_diffs(grid, u, ax) * pad_diffs(grid, h, ax)))
    grad_uu, grad_uh = grad_uu * vol, grad_uh * vol
    int_F = float(np.sum(model.nonlin.F(u)) * vol)
    fu = model.nonlin.f(u)
    E = norm_l2(grid, v) ** 2 + lp * norm_l2(grid, u) ** 2 + grad_uu + 2.0 * int_F
    terms = {
        "damp_v": -2.0 * (al - dl - 2.0 * sig) * norm_l2(grid, v) ** 2,
        "damp_u": -2.0 * (dl - 2.0 * sig) * lp * norm_l2(grid, u) ** 2,
        "damp_grad": -2.0 * (dl - 2.0 * sig) * grad_uu,
        "potential": 8.0 * sig * int_F,
        "dissipation": -2.0 * dl * float(np.sum(fu * u) * vol),
        "noise_u": 2.0 * lp * inner(grid, u, h) * w,
        "noise_grad": 2.0 * grad_uh * w,
        "noise_f": 2.0 * w * float(np.sum(fu * h) * vol),
        "forcing": 2.0 * inner(grid, model.g, v),
        "noise_v": 2.0 * (dl - al) * inner(grid, v, h) * w,
    }
    tails, tail_norms = {}, {}
    for k in k_list:
        node_w = cutoff_rho(grid.radius_sq() / k ** 2)
        u_sq = float(np.sum(node_w * u ** 2) * vol)
        v_sq = float(np.sum(node_w * v ** 2) * vol)
        grad = 0.0
        for ax in range(grid.dim):
            grad += float(np.sum(gap_weights(grid, k, ax) * pad_diffs(grid, u, ax) ** 2))
        grad *= vol
        tails[k] = u_sq + grad + v_sq
        tail_norms[k] = (u_sq, grad, v_sq)
    norm_u_h1 = float(np.sqrt(norm_l2(grid, u) ** 2 + grad_uu))
    return E, terms, tails, tail_norms, norm_u_h1, norm_l2(grid, v)


@st.composite
def kernel_cases(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(3, {1: 40, 2: 9, 3: 5}[dim]))
    grid = Grid(dim, draw(st.floats(2.0, 20.0)), n)
    profile = st.builds(FieldProfile, kind=st.just("gaussian"),
                        amplitude=st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
                        width=st.floats(0.3, 3.0), center=st.floats(-1.0, 1.0))
    model = make_model(grid, alpha=draw(st.floats(0.5, 2.0)), lam=draw(st.floats(0.5, 2.0)),
                       nonlin=PowerNonlinearity(a=draw(st.floats(0.1, 2.0)),
                                                gamma=draw(st.floats(1.0, 3.0)),
                                                b=draw(st.floats(0.0, 1.0))),
                       g=draw(profile), h=draw(profile))
    values = arrays(np.float64, grid.shape,
                    elements=st.floats(-5.0, 5.0) | st.sampled_from([0.0, -0.0]))
    states = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), values, values),
                           min_size=1, max_size=5))
    k_list = draw(st.lists(st.floats(0.1, 2.0 * grid.half_width), max_size=4, unique=True))
    return model, states, tuple(k_list)


@settings(max_examples=60, deadline=None)
@given(kernel_cases(), st.integers(0, 2))
def test_record_kernel_matches_textbook_formulas_bit_for_bit(case, seed):
    # 1-5 records go into one block before the first read reduces it
    model, states, k_list = case
    path = generate_path(seed, -1.0, 1.0, 0.01)
    obs = EnergyObserver(path, model, k_list=k_list)
    norms = BlockObserver(model, k_list)
    for t, u, v in states:
        obs(t, u, v)
        norms(t, u, v)
    assert len(obs.ts) == len(obs.E) == len(obs.terms) == len(obs.Psi) == len(states)
    assert [len(col) for col in obs.tails] == [len(states)] * len(k_list)
    for i, (t, u, v) in enumerate(states):
        E, terms, tails, tail_norms, norm_u_h1, norm_v_l2 = reference(
            u, v, path.evaluate(t), model, k_list)
        assert obs.ts[i] == t and obs.E[i] == E
        assert obs.terms[i] == terms and tuple(obs.terms[i]) == PSI_TERM_NAMES
        assert obs.Psi[i] == sum(terms.values())
        assert [col[i] for col in obs.tails] == [tails[k] for k in k_list]
        assert (obs.norm_u_h1[i], obs.norm_v_l2[i]) == (norm_u_h1, norm_v_l2)
        # the module-level readers give the same numbers
        assert energy_E(u, v, model) == E
        assert psi(u, v, t, path, model) == (sum(terms.values()), terms)
        for k in k_list:
            assert tail_energy(u, v, k, model) == tails[k]
            assert tuple(tail_weighted_norms(model.grid, u, v, k))[:3] == tail_norms[k]
    # the absorb/tails observer: the same columns, and absorb's product norm
    assert (norms.ts, norms.norm_u_h1, norms.norm_v_l2, norms.tails) == (
        obs.ts, obs.norm_u_h1, obs.norm_v_l2, obs.tails)
    assert [h1 ** 2 + nv ** 2 for h1, nv in zip(norms.norm_u_h1, norms.norm_v_l2)] == [
        product_norm_sq(model.grid, u, v) for _, u, v in states]


class Tee:
    """Hands every record to each observer, and every `read_every` records
    reads the results of the ones in `read`, which must hold every record so
    far: a read reduces a partial block."""

    def __init__(self, observers, read, read_every):
        self.observers, self.read, self.read_every, self.calls = observers, read, read_every, 0

    def __call__(self, t, u, v):
        for obs in self.observers:
            obs(t, u, v)
        self.calls += 1
        if self.calls % self.read_every == 0:
            for obs in self.read:
                assert len(obs.ts) == self.calls


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 3), scheme=st.sampled_from(SCHEMES), record_every=st.integers(1, 4),
       k_list=st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.5]), max_size=3, unique=True),
       read_every=st.integers(1, 7), seed=st.integers(0, 2))
def test_block_size_changes_no_bit(dim, scheme, record_every, k_list, read_every, seed):
    grid = Grid(dim, 4.0, {1: 24, 2: 6, 3: 4}[dim])
    model = make_model(grid, h=FieldProfile("gaussian", center=0.5))
    path = generate_path(seed, -1.0, 1.0, 0.01)
    runs = {}  # block size -> (energy, norm) observers read at the end, and read mid-run
    for block in (1, 3, energy.BLOCK_RECORDS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(energy, "BLOCK_RECORDS", block)
            runs[block] = [EnergyObserver(path, model, k_list), BlockObserver(model, k_list),
                           EnergyObserver(path, model, k_list), BlockObserver(model, k_list)]
        assert all(obs.block == block for obs in runs[block])
    every = [obs for observers in runs.values() for obs in observers]
    tee = Tee(every, [obs for observers in runs.values() for obs in observers[2:]], read_every)
    u0, z0 = random_state(grid, seed)
    evolve(0.1 * u0, 0.1 * z0, 0.0, 0.375, path, model,
           SolveSpec(dt=0.01, scheme=scheme, record_every=record_every), observer=tee)
    want_e, want_n = runs[1][:2]
    assert len(want_e.ts) == tee.calls
    columns = ("ts", "norm_u_h1", "norm_v_l2", "tails")
    for e, n in zip(every[0::2], every[1::2]):
        for name in columns + ("E", "terms", "Psi", "norm_z_l2"):
            assert getattr(e, name) == getattr(want_e, name), name
        for name in columns:
            assert getattr(n, name) == getattr(want_n, name), name
        assert _exp_weighted_integral(n) == _exp_weighted_integral(want_n)


@pytest.mark.parametrize("dim, n, block", [(1, 40, 12), (1, 1024, 12), (1, 1500, 10),
                                           (2, 90, 2), (2, 127, 1), (3, 25, 1)])
def test_observer_blocks_stay_within_the_node_budget(dim, n, block):
    model = make_model(Grid(dim, 10.0, n))
    path = generate_path(0, -1.0, 1.0, 0.01)
    u, v = random_state(model.grid, 6)
    budget = energy.BLOCK_NODES * u.itemsize
    for obs in (EnergyObserver(path, model, k_list=(2.0,)), BlockObserver(model, (2.0,))):
        assert obs.block == block
        for i in range(obs.block + 2):  # one full block, then part of the next
            obs(0.01 * i, u, v)
            if obs.block == 1:  # the march's view is reduced as it comes: no block
                assert obs._u is None and obs._v is None
            else:
                assert obs._u.nbytes <= budget and obs._v.nbytes <= budget


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_axis_diffs_equal_padded_diff_bit_for_bit(data):
    dim = data.draw(st.integers(1, 3))
    grid = Grid(dim, data.draw(st.floats(0.5, 50.0)), data.draw(st.integers(3, 7)))
    values = data.draw(arrays(np.float64, grid.shape,
                              elements=st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])))
    for ax in range(dim):
        d, ref = _axis_diffs(grid, values, ax), pad_diffs(grid, values, ax)
        assert d.shape == ref.shape and d.flags.c_contiguous
        assert d.tobytes() == ref.tobytes()  # signed zeros included
