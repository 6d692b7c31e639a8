"""Two-sided Wiener paths: generation, shifting, evaluation, exponential integrals.

A path is realized once on a uniform grid containing t = 0 and is immutable
afterwards.  All randomness comes from a counter-based Philox generator so a
path is a pure function of (seed, t_min, t_max, dt_path).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "SamplePath",
    "ShiftedView",
    "FrozenPath",
    "PathRangeError",
    "generate_path",
    "check_path_range",
    "check_seeds",
    "shift",
    "tempered_integral",
]


class PathRangeError(ValueError):
    """Requested time lies outside the realized path (never extrapolate)."""


# fraction of dt_path within which t is snapped to a grid node (bit-exact value)
_NODE_SNAP = 1e-9
_MAX_NODES = 200_000_000


@dataclass(frozen=True)
class SamplePath:
    """Discrete Brownian path on t_lo + i*dt_path with omega(0) = 0 exactly."""

    t_lo: float
    t_hi: float
    dt_path: float
    values: np.ndarray
    seed: int

    def evaluate(self, t):
        """omega at t: a float for a float t, an array for an array of times.
        A time within `_NODE_SNAP` of a node gets the node's value bit for
        bit; any other time in range interpolates linearly between its nodes."""
        pos = np.atleast_1d((np.asarray(t, dtype=float) - self.t_lo) / self.dt_path)
        n = len(self.values)
        i = np.rint(pos)
        snap = (np.abs(pos - i) <= _NODE_SNAP) & (i >= 0) & (i < n)
        outside = ~snap & ((pos < 0.0) | (pos > n - 1))
        if outside.any():
            raise PathRangeError(f"t={float(np.ravel(t)[np.argmax(outside)])} outside path "
                                 f"range [{self.t_lo}, {self.t_hi}]")
        j = np.clip(np.floor(pos), 0, n - 2).astype(np.intp)
        theta = pos - j
        out = (1.0 - theta) * self.values[j] + theta * self.values[j + 1]
        out[snap] = self.values[i[snap].astype(np.intp)]
        return float(out[0]) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class ShiftedView:
    """View of a base path under the Wiener shift: theta_s omega(t) = omega(t+s) - omega(s)."""

    base: Union[SamplePath, "FrozenPath"]
    shift_s: float

    def __post_init__(self):
        object.__setattr__(self, "_base_at_s", self.base.evaluate(self.shift_s))

    @property
    def t_lo(self) -> float:
        return self.base.t_lo - self.shift_s

    @property
    def t_hi(self) -> float:
        return self.base.t_hi - self.shift_s

    @property
    def dt_path(self) -> float:
        return self.base.dt_path

    def evaluate(self, t):
        return self.base.evaluate(np.asarray(t, dtype=float) + self.shift_s) - self._base_at_s


@dataclass(frozen=True)
class FrozenPath:
    """Deterministic substitute path (e.g. omega(t) = sin t) for smooth-oracle runs."""

    fn: Callable[[float], float]
    t_lo: float = -math.inf
    t_hi: float = math.inf
    dt_path: float = 0.0  # no grid: evaluation is exact

    def __post_init__(self):
        if abs(self.fn(0.0)) > 1e-12:
            raise ValueError("frozen path must satisfy omega(0) = 0")

    def evaluate(self, t):
        ts = np.asarray(t, dtype=float)
        outside = (ts < self.t_lo) | (ts > self.t_hi)
        if outside.any():
            raise PathRangeError(f"t={float(ts.ravel()[np.argmax(outside)])} outside frozen "
                                 "path range")
        out = np.array([float(self.fn(x)) for x in ts.ravel().tolist()]).reshape(ts.shape)
        return float(out) if ts.ndim == 0 else out


PathLike = Union[SamplePath, ShiftedView, FrozenPath]


def check_path_range(t_min: float, t_max: float, dt_path: float) -> None:
    """A path grid needs a positive node spacing, a range containing t = 0
    and at most `_MAX_NODES` nodes."""
    if dt_path <= 0.0:
        raise ValueError("dt_path must be positive")
    if not t_min <= 0.0 <= t_max:
        raise ValueError("t_min must be <= 0 <= t_max: the path range contains t = 0")
    # generate_path's node count, in floats so a huge range cannot overflow
    nodes = (np.ceil(-t_min / dt_path - _NODE_SNAP) + np.ceil(t_max / dt_path - _NODE_SNAP)
             + 1)
    if nodes > _MAX_NODES:
        raise ValueError(f"t_min={t_min:g} to t_max={t_max:g} at dt_path={dt_path:g} needs "
                         f"{nodes:.3g} path nodes, over the size limit of {_MAX_NODES:,}")


def check_seeds(seeds) -> None:
    """At least one path seed, each an integer in [0, 2**64), so every Philox
    key built from one is valid: `generate_path` keys on the seed, and
    `experiments.random_state` on at most (seed*31337 + i) << 16, below 2**128.
    No seed twice: reports key their results by seed."""
    if not seeds:
        raise ValueError("path.seeds must name at least one seed")
    bad = [seed for seed in seeds if not 0 <= seed < 2 ** 64]
    if bad:
        raise ValueError(f"path seed {bad[0]} must lie in [0, 2**64)")
    repeated = [seed for seed, count in Counter(seeds).items() if count > 1]
    if repeated:
        raise ValueError(f"path seed {repeated[0]} is repeated: each seed runs once")


def generate_path(seed: int, t_min: float, t_max: float, dt_path: float) -> SamplePath:
    """Sample a two-sided Wiener path on a uniform grid containing t = 0.

    The positive branch is a cumulative sum of N(0, dt) increments; the
    negative branch is walked leftward from 0 with an independent increment
    stream (a jumped Philox state), so the path is two-sided with omega(0) = 0.
    """
    check_seeds([seed])
    check_path_range(t_min, t_max, dt_path)
    n_neg = int(math.ceil(-t_min / dt_path - _NODE_SNAP))
    n_pos = int(math.ceil(t_max / dt_path - _NODE_SNAP))
    total = n_neg + n_pos + 1

    sd = math.sqrt(dt_path)
    # independent branch streams from fresh generators, so each branch is a
    # pure function of (seed, its own length) regardless of the other range
    inc_pos = np.random.Generator(np.random.Philox(key=int(seed))).normal(0.0, sd, n_pos)
    inc_neg = np.random.Generator(
        np.random.Philox(key=int(seed)).jumped(1)).normal(0.0, sd, n_neg)

    values = np.empty(total)
    values[n_neg] = 0.0
    if n_pos:
        values[n_neg + 1:] = np.cumsum(inc_pos)
    if n_neg:
        # values at -dt, -2 dt, ... stored right-to-left
        values[:n_neg] = np.cumsum(inc_neg)[::-1]
    return SamplePath(
        t_lo=-n_neg * dt_path,
        t_hi=n_pos * dt_path,
        dt_path=dt_path,
        values=values,
        seed=int(seed),
    )


def shift(path: PathLike, s: float) -> PathLike:
    """Wiener shift theta_s.  Composing shifts flattens to a single view."""
    if isinstance(path, ShiftedView):
        return ShiftedView(base=path.base, shift_s=path.shift_s + s)
    return ShiftedView(base=path, shift_s=s)


def tempered_integral(path: PathLike, sigma: float, gamma: float, t_cut: float) -> float:
    """Trapezoidal value of int_{t_cut}^0 e^{sigma xi} (1 + |w|^2 + |w|^{gamma+1}) dxi.

    The improper lower limit is truncated at t_cut.  The path is read with
    `evaluate`, as the march reads it, so node times give node values.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if not (1.0 <= gamma <= 3.0):
        raise ValueError("gamma must lie in [1, 3]")
    if t_cut > 0.0:
        raise ValueError("t_cut must be <= 0")
    dt = path.dt_path if path.dt_path > 0.0 else 1e-3
    if t_cut < path.t_lo - _NODE_SNAP * dt:
        raise PathRangeError(f"t_cut={t_cut} below path range start {path.t_lo}")

    n = int(math.ceil(-t_cut / dt - _NODE_SNAP))
    ts = np.concatenate(([t_cut], -dt * np.arange(n - 1, -1, -1))) if n > 0 else np.array([0.0])
    ws = path.evaluate(ts)
    integrand = np.exp(sigma * ts) * (1.0 + ws ** 2 + np.abs(ws) ** (gamma + 1.0))
    return float(np.trapezoid(integrand, ts))

