"""Rate constants, nonlinearity structure, and growth-condition validation."""
import math

import numpy as np
import pytest

from rdawave.grid import Grid
from rdawave.model import (FieldProfile, PowerNonlinearity, choose_delta,
                           compute_sigma, make_model,
                           validate_growth_conditions)

U_SAMPLES = [-10.0, -2.5, -1.0, -0.3, 0.0, 0.3, 1.0, 2.5, 10.0]


def test_choose_delta_satisfies_admissibility():
    for alpha, lam in [(1.0, 1.0), (0.5, 2.0), (4.0, 0.1), (10.0, 100.0)]:
        d = choose_delta(alpha, lam)
        assert d > 0.0
        assert alpha - d > 0.0
        assert lam + d ** 2 - alpha * d > 0.0


def test_choose_delta_validation():
    with pytest.raises(ValueError):
        choose_delta(0.0, 1.0)
    with pytest.raises(ValueError):
        choose_delta(1.0, -1.0)


def test_sigma_reference_value():
    # alpha = 1, delta = 0.1, c2 = 4: min(0.9, 0.1, 0.4)/2 = 0.05
    assert compute_sigma(1.0, 0.1, 4.0) == pytest.approx(0.05, rel=1e-15)


def test_sigma_names_violated_inequality():
    with pytest.raises(ValueError, match="alpha - delta"):
        compute_sigma(1.0, 1.5, 4.0)
    with pytest.raises(ValueError, match="delta > 0"):
        compute_sigma(1.0, 0.0, 4.0)
    with pytest.raises(ValueError, match="lam"):
        compute_sigma(10.0, 5.0, 4.0, lam=1.0)


def test_nonlinearity_derivative_structure():
    nl = PowerNonlinearity(a=2.0, gamma=3.0, b=0.5)
    eps = 1e-6
    for u in (-2.0, -0.5, 0.7, 3.0):
        fd_f = (nl.F(u + eps) - nl.F(u - eps)) / (2 * eps)
        assert float(nl.f(u)) == pytest.approx(fd_f, rel=1e-8)
        fd_fp = (nl.f(u + eps) - nl.f(u - eps)) / (2 * eps)
        assert float(nl.f_prime(u)) == pytest.approx(fd_fp, rel=1e-7)


def test_pure_power_euler_identity():
    # f(u)*u = (gamma+1)*F(u) when b = 0
    for gamma in (1.0, 2.0, 3.0):
        nl = PowerNonlinearity(a=1.7, gamma=gamma, b=0.0)
        u = np.array(U_SAMPLES)
        assert np.allclose(nl.f(u) * u, (gamma + 1.0) * nl.F(u),
                           rtol=1e-13, atol=1e-13)


def test_growth_constants():
    nl = PowerNonlinearity(a=2.0, gamma=3.0, b=0.0)
    assert (nl.c1, nl.c2, nl.c3, nl.c4) == (2.0, 4.0, 0.5, 6.0)
    mixed = PowerNonlinearity(a=2.0, gamma=3.0, b=1.0)
    assert mixed.c2 == 2.0


def test_nonlinearity_parameter_validation():
    with pytest.raises(ValueError):
        PowerNonlinearity(a=-1.0)
    with pytest.raises(ValueError):
        PowerNonlinearity(gamma=4.0)
    with pytest.raises(ValueError):
        PowerNonlinearity(gamma=0.5)
    with pytest.raises(ValueError):
        PowerNonlinearity(b=-0.1)


@pytest.mark.parametrize("nl", [
    PowerNonlinearity(a=1.0, gamma=3.0),
    PowerNonlinearity(a=0.3, gamma=1.0),
    PowerNonlinearity(a=2.0, gamma=2.0, b=0.7),
])
def test_growth_conditions_hold_for_power_laws(nl):
    report = validate_growth_conditions(nl, U_SAMPLES)
    assert report.passed, report.violations()
    if nl.b > 0.0:
        assert report.notes  # adjustment for the linear part is recorded


def test_growth_conditions_report_not_raise():
    report = validate_growth_conditions(PowerNonlinearity(a=1.0, gamma=3.0),
                                        U_SAMPLES)
    names = {c.name for c in report.checks}
    assert names == {"growth_f", "dissipativity", "coercivity_F", "growth_fprime"}
    assert len(report.checks) == 4 * len(U_SAMPLES)


def test_growth_conditions_input_validation():
    nl = PowerNonlinearity()
    with pytest.raises(ValueError):
        validate_growth_conditions(nl, [])
    with pytest.raises(ValueError):
        validate_growth_conditions(nl, [1.0, math.nan])


def test_field_profiles():
    with pytest.raises(ValueError):
        FieldProfile("triangle")
    with pytest.raises(ValueError):
        FieldProfile("gaussian", width=0.0)
    bump = FieldProfile("bump", amplitude=2.0, width=1.0)
    vals = bump.evaluate_r_sq(np.array([0.0, 0.5, 1.0, 4.0]))
    assert vals[0] == pytest.approx(2.0)
    assert vals[2] == 0.0 and vals[3] == 0.0
    zero = FieldProfile("zero")
    assert np.all(zero.evaluate_r_sq(np.array([0.0, 1.0])) == 0.0)


def test_make_model_derived_quantities():
    grid = Grid(1, 5.0, 32)
    m = make_model(grid, alpha=1.0, lam=1.0)
    assert m.delta == pytest.approx(0.5)
    assert m.lam_prime == pytest.approx(1.0 + 0.25 - 0.5)
    assert m.sigma == pytest.approx(0.25)  # min(0.5, 0.5, 0.5*4)/2
    assert m.c2 == 4.0
    assert m.g.shape == grid.shape and m.h.shape == grid.shape


@pytest.mark.parametrize("name", ["g", "h"])
def test_make_model_rejects_data_not_shaped_like_the_grid(name):
    grid = Grid(2, 5.0, 8)
    for bad in (np.zeros(8), np.zeros((9, 9)), np.zeros(64), np.zeros((8, 8, 1))):
        with pytest.raises(ValueError, match="shape"):
            make_model(grid, **{name: bad})
    data = np.arange(64.0).reshape(grid.shape)
    assert np.array_equal(getattr(make_model(grid, **{name: data}), name), data)


def test_make_model_rejects_bad_delta():
    grid = Grid(1, 5.0, 32)
    with pytest.raises(ValueError):
        make_model(grid, alpha=1.0, lam=1.0, delta=2.0)
    with pytest.raises(ValueError):
        make_model(grid, alpha=-1.0, lam=1.0)
