"""Experiment harness: family specs, state factories, reports, small-scale runs."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdawave.experiments import (TemperedFamilySpec, absorption_experiment,
                                 cocycle_experiment, estimate_R,
                                 gaussian_state, product_norm_sq,
                                 pullback_convergence_experiment, random_state,
                                 tail_experiment, temperedness_probe)
from rdawave.grid import Grid
from rdawave.model import FieldProfile, make_model
from rdawave.paths import generate_path
from rdawave.solver import SCHEMES, SolveSpec


@pytest.fixture(scope="module")
def model():
    grid = Grid(1, 20.0, 256)
    return make_model(grid, g=FieldProfile("gaussian"), h=FieldProfile("gaussian"))


@pytest.fixture(scope="module")
def spec():
    return SolveSpec(dt=0.01, record_every=20)


def paths_for(n_seeds, t_min, dt=0.01):
    return [generate_path(s, t_min, 0.0, dt) for s in range(n_seeds)]


def test_family_spec_validation():
    with pytest.raises(ValueError):
        TemperedFamilySpec(kind="ball")
    with pytest.raises(ValueError):
        TemperedFamilySpec(radius_0=0.0)
    with pytest.raises(ValueError):
        TemperedFamilySpec(kind="fixed_ball", growth_beta=0.5)


def test_family_radius_is_tempered():
    fam = TemperedFamilySpec(kind="subexponential_growth", radius_0=2.0,
                             growth_beta=0.5)
    assert fam.radius(-4.0) == pytest.approx(2.0 * math.exp(1.0))
    # e^{-beta |tau|} radius(tau) -> 0 for every beta > 0
    beta = 0.01
    vals = [math.exp(-beta * abs(t)) * fam.radius(t) for t in (-1e2, -1e4, -1e6)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-10


def test_random_state_radius_and_determinism(model):
    u1, z1 = random_state(model.grid, 3, 2.5)
    u2, z2 = random_state(model.grid, 3, 2.5)
    assert np.array_equal(u1, u2)
    assert math.sqrt(product_norm_sq(model.grid, u1, z1)) == pytest.approx(2.5, rel=1e-12)
    u3, _ = random_state(model.grid, 4, 2.5)
    assert not np.array_equal(u1, u3)


def test_gaussian_state_radius(model):
    u, z = gaussian_state(model.grid, 1.7)
    assert math.sqrt(product_norm_sq(model.grid, u, z)) == pytest.approx(1.7, rel=1e-12)


def test_estimate_R_scaling(model):
    path = generate_path(0, -50.0, 0.0, 0.01)
    base = estimate_R(path, model, t_cut=-50.0)
    assert base > 1.0
    assert estimate_R(path, model, t_cut=-50.0, c=3.0) == pytest.approx(3.0 * base)


def test_temperedness_probe_small(model):
    probe_model = make_model(model.grid, alpha=20.0, lam=400.0)
    paths = paths_for(4, -150.0)
    rep = temperedness_probe(paths, probe_model, t_grid=np.arange(0.0, 50.0, 0.5),
                             t_cut=-100.0)
    assert rep.experiment == "temperedness_probe"
    assert set(rep.results) == {"0", "1", "2", "3"}
    for per_beta in rep.results.values():
        assert set(per_beta) == {"0.01", "0.1", "1.0"}


def test_absorption_experiment_small(model, spec):
    fam = TemperedFamilySpec()
    rep = absorption_experiment(fam, [-1.0, -2.0, -4.0, -8.0, -16.0],
                                paths_for(2, -16.0), model, spec)
    for res in rep.results.values():
        assert res["entry_index"] <= 2
        assert res["fitted_bound"] > 0.0
        assert len(res["final_norm_uz_sq"]) == 5
    assert rep.passed


def test_absorption_rejects_nonnegative_tau(model, spec):
    with pytest.raises(ValueError):
        absorption_experiment(TemperedFamilySpec(), [-1.0, 0.0],
                              paths_for(1, -2.0), model, spec)


def test_tail_experiment_small(model, spec):
    rep = tail_experiment(1e-3, [4.0, 8.0, 12.0], [-2.0, -4.0],
                          paths_for(2, -4.0), model, spec)
    per_seed = rep.results["per_seed"]
    for res in per_seed.values():
        assert res["strictly_decreasing_in_k"]
        assert res["attained_k"] is not None
    assert rep.passed


def test_tail_experiment_guards(model, spec):
    paths = paths_for(1, -2.0)
    with pytest.raises(ValueError, match="epsilon"):
        tail_experiment(0.0, [4.0], [-1.0], paths, model, spec)
    with pytest.raises(ValueError, match="max\\(k\\)"):
        # sqrt(2)*15 > 20: the box would clip the weight
        tail_experiment(1e-3, [15.0], [-1.0], paths, model, spec)


def test_pullback_convergence_small(model, spec):
    fam = TemperedFamilySpec()
    rep = pullback_convergence_experiment(fam, [-1.0, -2.0, -4.0, -8.0, -16.0],
                                          paths_for(2, -16.0), model, spec)
    for res in rep.results.values():
        dists = res["cauchy_decrements"]
        assert dists[-1] < dists[0]
    assert rep.passed


def test_pullback_convergence_needs_three_taus(model, spec):
    with pytest.raises(ValueError):
        pullback_convergence_experiment(TemperedFamilySpec(), [-1.0, -2.0],
                                        paths_for(1, -2.0), model, spec)


def test_cocycle_experiment_small(model, spec):
    rep = cocycle_experiment([(0.5, 0.5), (0.5, 1.0)], [0, 1], model, spec)
    assert rep.passed
    assert rep.margins["max_relative_defect"] <= 1e-10


def test_cocycle_experiment_rejects_misaligned_split(model, spec):
    with pytest.raises(ValueError, match="aligned"):
        cocycle_experiment([(0.505, 1.0)], [0], model, spec)


def test_report_serialization(model, spec):
    rep = cocycle_experiment([(0.5, 0.5)], [0], model, spec,
                             config_hash="cafe0123")
    payload = rep.to_jsonable()
    assert payload["schema_version"] == 1
    assert payload["config_hash"] == "cafe0123"
    assert payload["passed"] is True
    text = rep.to_text()
    assert "PASS" in text and "cafe0123" in text


@settings(max_examples=25, deadline=None)
@given(dt=st.sampled_from([0.005, 0.01, 0.02]), scheme=st.sampled_from(SCHEMES),
       steps=st.lists(st.tuples(st.integers(1, 60), st.integers(1, 60)), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 16))
def test_cocycle_defect_on_random_aligned_splits(dt, scheme, steps, seed):
    small = make_model(Grid(1, 5.0, 32), g=FieldProfile("gaussian"), h=FieldProfile("gaussian"))
    splits = [(i * dt, j * dt) for i, j in steps]
    rep = cocycle_experiment(splits, [seed], small, SolveSpec(dt=dt, scheme=scheme))
    assert rep.margins["max_relative_defect"] <= 1e-10
