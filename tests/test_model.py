"""Rate constants, nonlinearity structure, and growth-condition validation."""
import math
from dataclasses import dataclass, field
from typing import List

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rdawave.grid import Grid
from rdawave.model import FieldProfile, PowerNonlinearity, make_model, rate_split

U_SAMPLES = [-10.0, -2.5, -1.0, -0.3, 0.0, 0.3, 1.0, 2.5, 10.0]


# The growth-condition audit: the analytic constants of the four structural
# conditions on f and a sampled check that a nonlinearity meets them.

def f_prime(nl: PowerNonlinearity, u):
    u = np.asarray(u, dtype=float)
    return nl.a * nl.gamma * np.abs(u) ** (nl.gamma - 1.0) + nl.b


def c1(nl: PowerNonlinearity) -> float:
    return nl.a + nl.b


def c3(nl: PowerNonlinearity) -> float:
    return nl.a / (nl.gamma + 1.0)


def c4(nl: PowerNonlinearity) -> float:
    return nl.a * nl.gamma + nl.b


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    u: float
    lhs: float
    rhs: float
    ok: bool


@dataclass
class ValidationReport:
    checks: List[ConditionCheck]
    notes: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def violations(self) -> List[ConditionCheck]:
        return [c for c in self.checks if not c.ok]


def validate_growth_conditions(nl: PowerNonlinearity, u_samples) -> ValidationReport:
    """Sampled numeric check of the four structural growth conditions.

    Violations are report entries, never exceptions.  For b > 0 the pure power
    bounds gain an extra |u| (resp. constant) term, since the linear part is
    not dominated by |u|^gamma near zero; the adjustment is recorded.
    """
    samples = [float(u) for u in u_samples]
    if not samples:
        raise ValueError("u_samples must be nonempty")
    if not all(math.isfinite(u) for u in samples):
        raise ValueError("u_samples must be finite")

    tol = 1e-12
    checks: List[ConditionCheck] = []
    notes: List[str] = []
    mixed = nl.b > 0.0
    if mixed:
        notes.append("b > 0: growth and derivative bounds checked with an "
                     "added linear/constant term")
    for u in samples:
        fu = float(nl.f(u))
        Fu = float(nl.F(u))
        au = abs(u)

        bound1 = c1(nl) * (au ** nl.gamma + (au if mixed else 0.0))
        checks.append(ConditionCheck("growth_f", u, abs(fu), bound1,
                                     abs(fu) <= bound1 + tol * (1.0 + bound1)))

        lhs2 = fu * u - nl.c2 * Fu
        checks.append(ConditionCheck("dissipativity", u, lhs2, 0.0,
                                     lhs2 >= -tol * (1.0 + abs(fu * u))))

        rhs3 = c3(nl) * au ** (nl.gamma + 1.0)
        checks.append(ConditionCheck("coercivity_F", u, Fu, rhs3,
                                     Fu >= rhs3 - tol * (1.0 + rhs3)))

        fp = float(f_prime(nl, u))
        bound4 = c4(nl) * (au ** (nl.gamma - 1.0) + (1.0 if mixed else 0.0))
        checks.append(ConditionCheck("growth_fprime", u, abs(fp), bound4,
                                     abs(fp) <= bound4 + tol * (1.0 + bound4)))
    return ValidationReport(checks=checks, notes=notes)


def test_choose_delta_satisfies_admissibility():
    for alpha, lam in [(1.0, 1.0), (0.5, 2.0), (4.0, 0.1), (10.0, 100.0)]:
        d, _ = rate_split(alpha, lam, 4.0)
        assert d > 0.0
        assert alpha - d > 0.0
        assert lam + d ** 2 - alpha * d > 0.0


def test_choose_delta_validation():
    with pytest.raises(ValueError):
        rate_split(0.0, 1.0, 4.0)
    with pytest.raises(ValueError):
        rate_split(1.0, -1.0, 4.0)


def test_sigma_reference_value():
    # alpha = 1, delta = 0.1, c2 = 4: min(0.9, 0.1, 0.4)/2 = 0.05 (lam = 1 is admissible)
    assert rate_split(1.0, 1.0, 4.0, 0.1)[1] == pytest.approx(0.05, rel=1e-15)


def test_sigma_names_violated_inequality():
    with pytest.raises(ValueError, match="alpha - delta"):
        rate_split(1.0, 1.0, 4.0, 1.5)
    with pytest.raises(ValueError, match="delta > 0"):
        rate_split(1.0, 1.0, 4.0, 0.0)
    with pytest.raises(ValueError, match="lam"):
        rate_split(10.0, 1.0, 4.0, 5.0)


def test_nonlinearity_derivative_structure():
    nl = PowerNonlinearity(a=2.0, gamma=3.0, b=0.5)
    eps = 1e-6
    for u in (-2.0, -0.5, 0.7, 3.0):
        fd_f = (nl.F(u + eps) - nl.F(u - eps)) / (2 * eps)
        assert float(nl.f(u)) == pytest.approx(fd_f, rel=1e-8)
        fd_fp = (nl.f(u + eps) - nl.f(u - eps)) / (2 * eps)
        assert float(f_prime(nl, u)) == pytest.approx(fd_fp, rel=1e-7)


def test_pure_power_euler_identity():
    # f(u)*u = (gamma+1)*F(u) when b = 0
    for gamma in (1.0, 2.0, 3.0):
        nl = PowerNonlinearity(a=1.7, gamma=gamma, b=0.0)
        u = np.array(U_SAMPLES)
        assert np.allclose(nl.f(u) * u, (gamma + 1.0) * nl.F(u),
                           rtol=1e-13, atol=1e-13)


# finite doubles, with +-0.0 and subnormals drawn on purpose
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308]),
                   st.floats(-1e-300, 1e-300))


@given(u=hnp.arrays(np.float64, st.integers(1, 16), elements=FINITE),
       a=st.sampled_from([0.0, 1.0, 0.3, 2.5]), gamma=st.sampled_from([1.0, 2.0, 2.5, 3.0]))
def test_f_without_linear_part_equals_the_full_formula_bitwise(u, a, gamma):
    # f skips + b*u at b = 0; the full formula adds 0.0*u
    nl = PowerNonlinearity(a=a, gamma=gamma, b=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        got = nl.f(u)
        want = a * np.abs(u) ** (gamma - 1.0) * u + 0.0 * u
    assert got.tobytes() == want.tobytes()


def test_growth_constants():
    nl = PowerNonlinearity(a=2.0, gamma=3.0, b=0.0)
    assert (c1(nl), nl.c2, c3(nl), c4(nl)) == (2.0, 4.0, 0.5, 6.0)
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
    assert m.nonlin.c2 == 4.0
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
