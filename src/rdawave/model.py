"""Physical parameters, power-law nonlinearities, and derived rate constants."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .grid import Grid, positive_power

__all__ = [
    "FieldProfile",
    "PowerNonlinearity",
    "Model",
    "rate_split",
    "shifted_lambda",
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
        if not positive_power(self.width, 2):
            raise ValueError(f"width={self.width:g} has no positive finite square")

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

    c2 = gamma + 1 (b = 0) or 2 (b > 0) is the constant of the dissipativity
    condition f(u) u >= c2 F(u), which sets the decay rate sigma.
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
        fu = self.a * np.abs(u) ** (self.gamma - 1.0) * u
        # + 0.0*u changes no finite value's bits: the power term is -0.0
        # only where u is negative or -0.0, and there 0.0*u is -0.0 too
        return fu + self.b * u if self.b != 0.0 else fu

    def F(self, u):
        u = np.asarray(u, dtype=float)
        # |u|^(gamma+1) as |u|^(gamma-1) u^2: the power f uses, which numpy
        # computes by its fast square path at gamma = 3.  The power term is
        # never -0.0, so + 0.0*u^2 changes no bits wherever u^2 is finite
        Fu = self.a * (np.abs(u) ** (self.gamma - 1.0) * u * u) / (self.gamma + 1.0)
        return Fu + 0.5 * self.b * u ** 2 if self.b != 0.0 else Fu

    @property
    def c2(self) -> float:
        return self.gamma + 1.0 if self.b == 0.0 else 2.0


def shifted_lambda(alpha: float, lam: float, delta: float) -> float:
    """lam' = lam + delta^2 - alpha*delta, the zeroth-order rate of the
    transformed system."""
    return lam + delta ** 2 - alpha * delta


def rate_split(alpha: float, lam: float, c2: float,
               delta: Optional[float] = None) -> Tuple[float, float]:
    """(delta, sigma) for the rates (alpha, lam) and the nonlinearity's c2
    (gamma + 1 or 2): `delta` if given and admissible, else min(alpha,
    lam/alpha) / 2, which is admissible: delta <= alpha/2 gives alpha - delta
    > 0 and delta < lam/alpha gives lam' > 0; sigma = min(alpha - delta,
    delta, delta*c2) / 2."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    if delta is None:
        delta = 0.5 * min(alpha, lam / alpha)
    if delta <= 0.0:
        raise ValueError("admissibility violated: delta > 0 fails")
    if alpha - delta <= 0.0:
        raise ValueError("admissibility violated: alpha - delta > 0 fails")
    try:
        lam_prime = shifted_lambda(alpha, lam, delta)
    except OverflowError:
        lam_prime = math.inf
    if not math.isfinite(lam_prime):
        raise ValueError(f"delta={delta:g} at alpha={alpha:g} puts lam + delta^2 - alpha*delta "
                         "past the largest float")
    if lam_prime <= 0.0:
        raise ValueError(
            "admissibility violated: lam + delta^2 - alpha*delta > 0 fails")
    return delta, 0.5 * min(alpha - delta, delta, delta * c2)


@dataclass(frozen=True, eq=False)
class Model:
    """Everything the solver and diagnostics need: grid, rates, nonlinearity,
    and the forcing g and noise shape h as arrays shaped `grid.shape`."""

    grid: Grid
    alpha: float
    lam: float
    nonlin: PowerNonlinearity
    delta: float
    sigma: float
    g: np.ndarray
    h: np.ndarray

    @property
    def lam_prime(self) -> float:
        return shifted_lambda(self.alpha, self.lam, self.delta)


def make_model(grid: Grid,
               alpha: float = 1.0,
               lam: float = 1.0,
               nonlin: PowerNonlinearity = PowerNonlinearity(),
               g: Union[FieldProfile, np.ndarray] = FieldProfile("gaussian"),
               h: Union[FieldProfile, np.ndarray] = FieldProfile("gaussian"),
               delta: Optional[float] = None) -> Model:
    delta, sigma = rate_split(alpha, lam, nonlin.c2, delta)
    g, h = (x.evaluate_r_sq(grid.radius_sq(x.center)) if isinstance(x, FieldProfile)
            else np.asarray(x, dtype=float) for x in (g, h))
    if g.shape != grid.shape or h.shape != grid.shape:
        raise ValueError(f"g and h must have the grid's shape {grid.shape}")
    return Model(grid=grid, alpha=alpha, lam=lam, nonlin=nonlin,
                 delta=delta, sigma=sigma, g=g, h=h)
