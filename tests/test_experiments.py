"""Experiment harness: family specs, state factories, reports, small-scale runs."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdawave.experiments import (TemperedFamilySpec, absorption_experiment,
                                 cocycle_experiment, estimate_R,
                                 gaussian_state, product_norm_sq,
                                 pullback_convergence_experiment, random_state,
                                 tail_experiment)
from rdawave.grid import Grid
from rdawave.model import FieldProfile, make_model
from rdawave.paths import generate_path, tempered_integral
from rdawave.reporting import report_text, write_json
from rdawave.solver import SCHEMES, SolveSpec, evolve


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
        TemperedFamilySpec(radius_0=0.0)


def test_family_radius_is_tempered():
    fam = TemperedFamilySpec(radius_0=2.0, growth_beta=0.5)
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
    assert base == 1.0 + tempered_integral(path, model.sigma, model.nonlin.gamma, -50.0)


def test_absorption_experiment_small(model, spec):
    fam = TemperedFamilySpec()
    rep = absorption_experiment(fam, [-1.0, -2.0, -4.0, -8.0, -16.0],
                                paths_for(2, -16.0), model, spec)
    for res in rep["results"].values():
        assert res["entry_index"] <= 2
        assert res["fitted_bound"] > 0.0
        assert len(res["final_norm_uz_sq"]) == 5
    assert rep["passed"]


def test_absorption_rejects_nonnegative_tau(model, spec):
    with pytest.raises(ValueError):
        absorption_experiment(TemperedFamilySpec(), [-1.0, 0.0],
                              paths_for(1, -2.0), model, spec)


def test_tail_experiment_small(model, spec):
    rep = tail_experiment(1e-3, [4.0, 8.0, 12.0], [-2.0, -4.0],
                          paths_for(2, -4.0), model, spec)
    per_seed = rep["results"]["per_seed"]
    for res in per_seed.values():
        assert res["strictly_decreasing_in_k"]
        assert res["attained_k"] is not None
    assert rep["passed"]


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
    for res in rep["results"].values():
        dists = res["cauchy_decrements"]
        assert dists[-1] < dists[0]
    assert rep["passed"]


def test_pullback_decrements_are_those_of_consecutive_runs_alone(model, spec):
    """Each decrement is the H1 x L2 distance between consecutive taus' t = 0
    states, each marched alone by `evolve`, bit for bit."""
    taus = [-0.5, -1.0, -1.5, -2.0]
    paths = paths_for(2, -2.0)
    rep = pullback_convergence_experiment(TemperedFamilySpec(), taus, paths, model, spec)
    for path in paths:
        states = [evolve(*random_state(model.grid, path.seed * 2027 + i, 1.0), tau, 0.0, path,
                         model, spec) for i, tau in enumerate(taus)]
        want = [math.sqrt(product_norm_sq(model.grid, ua - ub, za - zb))
                for (ua, za), (ub, zb) in zip(states, states[1:])]
        assert rep["results"][str(path.seed)]["cauchy_decrements"] == want


@pytest.mark.parametrize("run", [
    lambda taus, paths, model, spec: absorption_experiment(TemperedFamilySpec(), taus, paths,
                                                           model, spec),
    lambda taus, paths, model, spec: tail_experiment(1e-3, [4.0, 8.0], taus, paths, model, spec),
    lambda taus, paths, model, spec: pullback_convergence_experiment(TemperedFamilySpec(), taus,
                                                                     paths, model, spec)],
    ids=["absorb", "tails", "pullback"])
def test_a_repeated_tau_is_refused_before_any_march(model, spec, run, monkeypatch):
    """A panel's taus are distinct start times: two runs from one tau would
    make a decrement of the data alone, and count one start twice."""
    monkeypatch.setattr("rdawave.experiments.Stepper.march", None)  # never reached
    with pytest.raises(ValueError, match="repeated"):
        run([-1.0, -2.0, -2.0, -4.0], paths_for(1, -4.0), model, spec)


def test_pullback_convergence_needs_three_taus(model, spec):
    with pytest.raises(ValueError):
        pullback_convergence_experiment(TemperedFamilySpec(), [-1.0, -2.0],
                                        paths_for(1, -2.0), model, spec)


def test_cocycle_experiment_small(model, spec):
    rep = cocycle_experiment([(0.5, 0.5), (0.5, 1.0)], [0, 1], model, spec)
    assert rep["passed"]
    assert rep["margins"]["max_relative_defect"] <= 1e-10


def test_cocycle_experiment_rejects_misaligned_split(model, spec):
    with pytest.raises(ValueError, match="aligned"):
        cocycle_experiment([(0.505, 1.0)], [0], model, spec)


def test_report_serialization(model, spec, tmp_path):
    rep = cocycle_experiment([(0.5, 0.5)], [0], model, spec)
    write_json(tmp_path / "cocycle_report.json", rep, "cafe0123", deterministic=True)
    payload = json.loads((tmp_path / "cocycle_report.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["config_hash"] == "cafe0123"
    assert payload["passed"] is True
    text = report_text(rep, "cafe0123")
    assert "PASS" in text and "cafe0123" in text


@settings(max_examples=25, deadline=None)
@given(dt=st.sampled_from([0.005, 0.01, 0.02]), scheme=st.sampled_from(SCHEMES),
       steps=st.lists(st.tuples(st.integers(1, 60), st.integers(1, 60)), min_size=1, max_size=3,
                      unique=True),
       seed=st.integers(0, 2 ** 16))
def test_cocycle_defect_on_random_aligned_splits(dt, scheme, steps, seed):
    small = make_model(Grid(1, 5.0, 32), g=FieldProfile("gaussian"), h=FieldProfile("gaussian"))
    splits = [(i * dt, j * dt) for i, j in steps]
    rep = cocycle_experiment(splits, [seed], small, SolveSpec(dt=dt, scheme=scheme))
    assert rep["margins"]["max_relative_defect"] <= 1e-10
