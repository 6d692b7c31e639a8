"""Physical parameters, power-law nonlinearities, and derived rate constants."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .grid import Field, Grid, field_from_profile

__all__ = [
    "FieldProfile",
    "PowerNonlinearity",
    "Model",
    "choose_delta",
    "compute_sigma",
    "rate_split",
    "shifted_lambda",
    "validate_growth_conditions",
    "ConditionCheck",
    "ValidationReport",
    "make_model",
]


@dataclass(frozen=True)
class FieldProfile:
    """Radial closed-form profile for the forcing g and the noise shape h.

    kinds: `zero`, `gaussian` (amplitude * exp(-r^2 / (2 width^2))), and
    `bump` (compactly supported, amplitude * exp(1 - 1/(1 - r^2/width^2))).
    `center` offsets the profile along the first axis.
    """

    kind: str = "gaussian"
    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "gaussian", "bump"):
            raise ValueError(f"kind must be zero, gaussian or bump, not {self.kind!r}")
        if self.width <= 0.0:
            raise ValueError("width must be positive")

    def evaluate_r_sq(self, r_sq: np.ndarray) -> np.ndarray:
        r_sq = np.asarray(r_sq, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(r_sq)
        if self.kind == "gaussian":
            return self.amplitude * np.exp(-r_sq / (2.0 * self.width ** 2))
        s = r_sq / self.width ** 2
        out = np.zeros_like(r_sq)
        mask = s < 1.0
        out[mask] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - s[mask]))
        return out


@dataclass(frozen=True)
class PowerNonlinearity:
    """f(u) = a |u|^(gamma-1) u + b u, with F its antiderivative.

    The induced growth-condition constants are analytic: c1 = a + b,
    c2 = gamma + 1 (b = 0) or 2 (b > 0), c3 = a/(gamma+1), c4 = a*gamma + b.
    """

    a: float = 1.0
    gamma: float = 3.0
    b: float = 0.0

    def __post_init__(self):
        if self.a < 0.0:
            raise ValueError("a must be nonnegative (a = 0 switches f off)")
        if not (1.0 <= self.gamma <= 3.0):
            raise ValueError("gamma must lie in [1, 3] (no supercritical growth)")
        if self.b < 0.0:
            raise ValueError("b must be nonnegative")

    def f(self, u):
        u = np.asarray(u, dtype=float)
        return self.a * np.abs(u) ** (self.gamma - 1.0) * u + self.b * u

    def F(self, u):
        u = np.asarray(u, dtype=float)
        # |u|^(gamma+1) as |u|^(gamma-1) u^2: the power f uses, which numpy
        # computes by its fast square path at gamma = 3
        return (self.a * (np.abs(u) ** (self.gamma - 1.0) * u * u) / (self.gamma + 1.0)
                + 0.5 * self.b * u ** 2)

    def f_prime(self, u):
        u = np.asarray(u, dtype=float)
        return self.a * self.gamma * np.abs(u) ** (self.gamma - 1.0) + self.b

    @property
    def c1(self) -> float:
        return self.a + self.b

    @property
    def c2(self) -> float:
        return self.gamma + 1.0 if self.b == 0.0 else 2.0

    @property
    def c3(self) -> float:
        return self.a / (self.gamma + 1.0)

    @property
    def c4(self) -> float:
        return self.a * self.gamma + self.b


def choose_delta(alpha: float, lam: float) -> float:
    """One admissible rate split: delta = min(alpha, lam/alpha) / 2.

    delta <= alpha/2 gives alpha - delta > 0; delta < lam/alpha gives
    lam - alpha*delta > 0, hence lam + delta^2 - alpha*delta > 0.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    return 0.5 * min(alpha, lam / alpha)


def compute_sigma(alpha: float, delta: float, c2: float,
                  lam: Optional[float] = None) -> float:
    """sigma = min(alpha - delta, delta, delta*c2) / 2, after admissibility checks."""
    if c2 <= 0.0:
        raise ValueError("c2 must be positive")
    if delta <= 0.0:
        raise ValueError("admissibility violated: delta > 0 fails")
    if alpha - delta <= 0.0:
        raise ValueError("admissibility violated: alpha - delta > 0 fails")
    if lam is not None and shifted_lambda(alpha, lam, delta) <= 0.0:
        raise ValueError(
            "admissibility violated: lam + delta^2 - alpha*delta > 0 fails")
    return 0.5 * min(alpha - delta, delta, delta * c2)


def shifted_lambda(alpha: float, lam: float, delta: float) -> float:
    """lam' = lam + delta^2 - alpha*delta, the zeroth-order rate of the
    transformed system."""
    return lam + delta ** 2 - alpha * delta


def rate_split(alpha: float, lam: float, c2: float,
               delta: Optional[float] = None) -> Tuple[float, float]:
    """(delta, sigma) for the rates (alpha, lam) and the nonlinearity's c2:
    `delta` if given and admissible, else `choose_delta`'s."""
    chosen = choose_delta(alpha, lam)  # also checks alpha, lam > 0
    delta = chosen if delta is None else delta
    return delta, compute_sigma(alpha, delta, c2, lam=lam)


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

        bound1 = nl.c1 * (au ** nl.gamma + (au if mixed else 0.0))
        checks.append(ConditionCheck("growth_f", u, abs(fu), bound1,
                                     abs(fu) <= bound1 + tol * (1.0 + bound1)))

        lhs2 = fu * u - nl.c2 * Fu
        checks.append(ConditionCheck("dissipativity", u, lhs2, 0.0,
                                     lhs2 >= -tol * (1.0 + abs(fu * u))))

        rhs3 = nl.c3 * au ** (nl.gamma + 1.0)
        checks.append(ConditionCheck("coercivity_F", u, Fu, rhs3,
                                     Fu >= rhs3 - tol * (1.0 + rhs3)))

        fp = float(nl.f_prime(u))
        bound4 = nl.c4 * (au ** (nl.gamma - 1.0) + (1.0 if mixed else 0.0))
        checks.append(ConditionCheck("growth_fprime", u, abs(fp), bound4,
                                     abs(fp) <= bound4 + tol * (1.0 + bound4)))
    return ValidationReport(checks=checks, notes=notes)


@dataclass(frozen=True, eq=False)
class Model:
    """Everything the solver and diagnostics need: grid, rates, nonlinearity, data."""

    grid: Grid
    alpha: float
    lam: float
    nonlin: PowerNonlinearity
    delta: float
    sigma: float
    g: Field
    h: Field

    @property
    def lam_prime(self) -> float:
        return shifted_lambda(self.alpha, self.lam, self.delta)

    @property
    def c2(self) -> float:
        return self.nonlin.c2


def make_model(grid: Grid,
               alpha: float = 1.0,
               lam: float = 1.0,
               nonlin: PowerNonlinearity = PowerNonlinearity(),
               g: Union[FieldProfile, Field] = FieldProfile("gaussian"),
               h: Union[FieldProfile, Field] = FieldProfile("gaussian"),
               delta: Optional[float] = None) -> Model:
    delta, sigma = rate_split(alpha, lam, nonlin.c2, delta)
    g_field = g if isinstance(g, Field) else field_from_profile(grid, g)
    h_field = h if isinstance(h, Field) else field_from_profile(grid, h)
    if g_field.grid != grid or h_field.grid != grid:
        raise ValueError("g and h must live on the model grid")
    return Model(grid=grid, alpha=alpha, lam=lam, nonlin=nonlin,
                 delta=delta, sigma=sigma, g=g_field, h=h_field)
