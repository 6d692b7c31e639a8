"""Pathwise time integration of the transformed first-order system.

With lam' = lam + delta^2 - alpha*delta and A = lam' - Laplacian, the system is

    du/dt = -delta u + v + h w(t)
    dv/dt = -(alpha - delta) v - A u - f(u) + g + (delta - alpha) h w(t)

where w(t) is a realized noise path.  Both schemes treat the stiff linear part
implicitly via one SPD solve per step (2x2 block elimination); the nonlinearity
stays explicit.

State is a plain array with a leading ensemble axis, (S, N) for S trajectories
on N = n**dim nodes.  `Stepper.march` advances any number of independent
trajectories ("columns") together; `evolve` is its one-column case.  A
trajectory starts and ends as (u, z), z = u_t + delta*u; only observers see
the march's v = z - h*omega(t).  Outside the march, states are shaped `grid.shape`.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import Grid, laplacian_matrix
from .model import Model
from .paths import PathLike, PathRangeError

__all__ = [
    "SolveSpec",
    "DivergenceError",
    "Column",
    "Stepper",
    "step",
    "step_count",
    "whole_steps",
    "check_stability",
    "check_path_alignment",
    "evolve",
    "reconstruct_z",
]

SCHEMES = ("semi_implicit", "crank_nicolson_linear")

# Nodes per march group.  In 1-D the batched solve and operator cost less per
# column as a group widens (n=512 on a 2-vCPU Xeon: about 60 us per
# column-step alone, 22 us in a group of 8, no better at 16; n=1024 is best
# at 8); in 2-D/3-D each column's sine transform dominates and a wider group
# gains nothing, so grids of this size or more march one column at a time.
GROUP_NODES = 8192


class DivergenceError(ArithmeticError):
    """The trajectory left the representable range (NaN/Inf)."""


@dataclass(frozen=True)
class SolveSpec:
    dt: float = 0.01
    scheme: str = "semi_implicit"
    record_every: int = 1
    stability_factor: float = 5.0

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.stability_factor <= 0.0:
            raise ValueError("stability_factor must be positive")


def implicit_solve(grid: Grid, a: float, coef: float, lam_prime: float):
    """Solver for the SPD system ((a + coef*lam') I - coef*Laplacian_h) x = rhs.

    The returned `solve(rhs)` takes one right-hand side of shape (N,) or a
    batch of shape (S, N), one per row, and returns an array of the same
    shape; each row is solved exactly as it would be alone.

    1-D: sparse LU of the tridiagonal matrix.  2-D/3-D: DST-I diagonalises the
    Dirichlet Laplacian on every axis, so one forward transform, a diagonal
    divide and one inverse transform solve the system to roundoff (fastest
    when n+1 has only small prime factors).  One transform over the grid axes
    covers the whole batch: each row comes out bit-identical to transforming
    it alone.
    """
    if grid.dim == 1:
        mat = (a + coef * lam_prime) * sp.identity(grid.n, format="csr") \
            - coef * laplacian_matrix(grid)
        lu = spla.splu(mat.tocsc())
        return lambda rhs: lu.solve(rhs.T).T
    from scipy.fft import dstn, idstn  # here, so 1-D runs never import scipy.fft

    n = grid.n
    # eigenvalues of -Laplacian_h along one axis
    mu = (4.0 / grid.spacing ** 2) * np.sin(np.arange(1, n + 1) * math.pi / (2.0 * (n + 1))) ** 2
    diag = np.full(grid.shape, a + coef * lam_prime)
    for ax in range(grid.dim):
        diag += coef * mu.reshape([n if i == ax else 1 for i in range(grid.dim)])
    axes = tuple(range(1, grid.dim + 1))

    def solve(rhs):
        batch = rhs.reshape(-1, *grid.shape)
        return idstn(dstn(batch, type=1, axes=axes) / diag, type=1, axes=axes).reshape(rhs.shape)

    return solve


def check_stability(grid: Grid, dt: float, lam_prime: float, factor: float) -> None:
    """The explicit part's step bound: dt <= factor / sqrt(max|Laplacian_h| + lam')."""
    bound = factor / math.sqrt(grid.laplacian_max_eig() + max(lam_prime, 0.0))
    if dt > bound:
        raise ValueError(
            f"dt={dt} exceeds the stability bound {bound:.3g} for the explicit part")


def whole_steps(x: float, dt: float) -> bool:
    """Whether x is a whole number of steps of length dt, to roundoff."""
    ratio = x / dt
    return abs(ratio - round(ratio)) <= 1e-9 * max(1.0, ratio)


def check_path_alignment(dt_path: float, dt: float) -> None:
    """Path nodes and solver steps must line up: dt_path and dt have an
    integer ratio, either way round.  A frozen path (dt_path = 0) has no grid."""
    if dt_path > 0.0 and not whole_steps(max(dt_path, dt), min(dt_path, dt)):
        raise ValueError(
            f"dt_path={dt_path} and solver dt={dt} are not aligned: "
            "they need an integer ratio")


def step_count(tau: float, t_end: float, dt: float):
    """(n_full, rem): full steps of `dt` from tau to t_end, and the length of
    the shortened final step that makes t_end exact (0.0 if none)."""
    eps = 1e-9 * max(1.0, abs(tau), abs(t_end))
    total = t_end - tau
    n_full = int(math.floor(total / dt + 1e-9))
    rem = total - n_full * dt
    return n_full, (rem if rem > eps else 0.0)


@dataclass(eq=False)
class Column:
    """One trajectory of a march: (u, z) at tau, marched to t_end along
    `path`.  The observer, if any, is called as `observer(t, u, v)` at tau,
    after every `record_every` of the column's own steps, and at t_end; u and
    v are views of the march state shaped `grid.shape`, not to be written."""

    u: np.ndarray
    z: np.ndarray
    tau: float
    t_end: float
    path: PathLike
    observer: Optional[Callable[[float, np.ndarray, np.ndarray], None]] = None


@dataclass(eq=False)
class _Plan:
    col: Column
    n_full: int
    rem: float
    noise: np.ndarray  # the scheme's noise sample for each step, rem step last


@dataclass(frozen=True)
class _StepLength:
    """One step length's implicit solve and the constants of its step."""

    solve: Callable[[np.ndarray], np.ndarray]
    b: float          # v_new's divisor: 1 + (alpha - delta)*dt, halved dt for CN
    to_u: float       # r_v's weight in the solve's right side: dt/b, or dt/(2b) for CN
    keep_u: float     # CN: 1 - delta*dt/2
    keep_v: float     # CN: 1 - (alpha - delta)*dt/2
    dt_h: np.ndarray  # dt*h


class Stepper:
    """Everything one (model, spec) run needs, built once: the stability
    check, the model arrays of the step, and per step length the implicit
    solve and the step's constants.  Build one per experiment and march all
    its columns through it."""

    def __init__(self, model: Model, spec: SolveSpec):
        grid = model.grid
        check_stability(grid, spec.dt, model.lam_prime, spec.stability_factor)
        self.model = model
        self.spec = spec
        self.h = model.h.ravel()
        self.g = model.g.ravel()
        self.noise_v = (model.delta - model.alpha) * self.h  # h's weight in dv/dt
        self.lam_prime = model.lam_prime
        # with a = b = 0 the step skips f (and CN's u_half, which only feeds f)
        self.nonlinear = model.nonlin.a != 0.0 or model.nonlin.b != 0.0
        self.lap = laplacian_matrix(grid)
        self.width = max(1, GROUP_NODES // grid.n ** grid.dim)
        self._lengths = {}

    def length(self, dt: float) -> _StepLength:
        """The implicit solve and step constants for a step of length dt,
        built on first use."""
        if dt not in self._lengths:
            m = self.model
            if self.spec.scheme == "semi_implicit":
                a = 1.0 + m.delta * dt
                b = 1.0 + (m.alpha - m.delta) * dt
                coef = dt * dt / b
                to_u = dt / b
            else:
                a = 1.0 + m.delta * dt / 2.0
                b = 1.0 + (m.alpha - m.delta) * dt / 2.0
                coef = dt * dt / (4.0 * b)
                to_u = dt / (2.0 * b)
            self._lengths[dt] = _StepLength(
                implicit_solve(m.grid, a, coef, m.lam_prime), b, to_u,
                1.0 - m.delta * dt / 2.0, 1.0 - (m.alpha - m.delta) * dt / 2.0, dt * self.h)
        return self._lengths[dt]

    def apply_A(self, u: np.ndarray) -> np.ndarray:
        return self.lam_prime * u - (self.lap @ u.T).T

    def march(self, columns: Sequence[Column]) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Advance every column from its tau to its t_end and return the
        final (u, z) at t_end, each shaped `grid.shape`, in the order given.
        Every column is checked before any is stepped.

        Columns with the same shortened final step share one march, in
        groups of at most `width` columns.  Within a group all columns end
        on the same step: a column joins when the march reaches its start,
        so the active columns are always a leading block of the state."""
        plans = [self._plan(col) for col in columns]
        by_rem = {}
        for i, p in enumerate(plans):
            by_rem.setdefault(p.rem, []).append(i)
        finals = [None] * len(plans)
        for idx in by_rem.values():
            idx.sort(key=lambda i: -plans[i].n_full)  # earliest start first
            for lo in range(0, len(idx), self.width):
                chunk = idx[lo:lo + self.width]
                for i, final in zip(chunk, self._march_group([plans[i] for i in chunk])):
                    finals[i] = final
        return finals

    def _plan(self, col: Column) -> _Plan:
        dt, path = self.spec.dt, col.path
        if col.tau > col.t_end:
            raise ValueError("tau must be <= t_end")
        check_path_alignment(path.dt_path, dt)
        eps = 1e-9 * max(1.0, abs(col.tau), abs(col.t_end))
        if col.tau < path.t_lo - eps or col.t_end > path.t_hi + eps:
            raise PathRangeError(
                f"path covers [{path.t_lo}, {path.t_hi}], run needs [{col.tau}, {col.t_end}]")
        n_full, rem = step_count(col.tau, col.t_end, dt)
        # step starts; the midpoint scheme samples half a step later
        ts = col.tau + np.arange(n_full + (rem > 0.0)) * dt
        if self.spec.scheme == "crank_nicolson_linear":
            ts[:n_full] += 0.5 * dt
            ts[n_full:] += 0.5 * rem
        return _Plan(col, n_full, rem, path.evaluate_exact(ts))

    def _march_group(self, group: List[_Plan]) -> List[Tuple[np.ndarray, np.ndarray]]:
        grid, h, dt, every = self.model.grid, self.model.h, self.spec.dt, self.spec.record_every
        rem = group[0].rem
        n_steps = group[0].n_full
        start = [n_steps - p.n_full for p in group]
        noise = np.zeros((n_steps, len(group)))
        joins = Counter(start)  # step -> columns that join before it
        records = {}
        for c, p in enumerate(group):
            noise[start[c]:, c] = p.noise[:p.n_full]
            last = p.n_full if rem > 0.0 else p.n_full - 1  # t_end records itself
            for j in range(every, last + 1, every):
                records.setdefault(start[c] + j - 1, []).append(c)

        def fire(c, t):
            obs = group[c].col.observer
            if obs is not None:
                obs(t, u[c].reshape(grid.shape), v[c].reshape(grid.shape))

        def check(dt_k, k):
            if not (np.isfinite(u).all() and np.isfinite(v).all()):
                c = int(np.argmin(np.isfinite(u).all(axis=1) & np.isfinite(v).all(axis=1)))
                t = group[c].col.tau + (k - start[c]) * dt
                raise DivergenceError(f"non-finite state after step at t={t} (dt={dt_k})")

        u = v = np.empty((0, grid.n ** grid.dim))
        Au = None  # A·u, carried from step to step; rebuilt when columns join
        for k in range(n_steps + 1):
            if k in joins:
                a = len(u)
                cols = [p.col for p in group[a:a + joins[k]]]
                u = np.vstack([u] + [np.ravel(col.u) for col in cols])
                # into the march's variable: v0 = z0 - h*omega(tau)
                v = np.vstack([v] + [np.ravel(col.z - h * col.path.evaluate(col.tau))
                                     for col in cols])
                Au = None
                for c in range(a, len(u)):
                    fire(c, group[c].col.tau)
            if k == n_steps:
                break
            u, v, Au = step(self, u, v, dt, noise[k, :len(u), None], Au)
            check(dt, k)
            for c in records.get(k, ()):
                fire(c, group[c].col.tau + (k + 1 - start[c]) * dt)
        if rem > 0.0:
            u, v, _ = step(self, u, v, rem, np.array([p.noise[-1] for p in group])[:, None], Au)
            check(rem, n_steps)
        for c, p in enumerate(group):
            if p.col.t_end != p.col.tau:
                fire(c, p.col.t_end)
        return [(u[c].reshape(grid.shape),
                 reconstruct_z(v[c].reshape(grid.shape), p.col.t_end, p.col.path, self.model))
                for c, p in enumerate(group)]


def step(run: Stepper, u: np.ndarray, v: np.ndarray, dt: float,
         w: np.ndarray, Au=None):
    """One time step of every column of (u, v), each of shape (S, N).
    `w` (shape (S, 1)) holds each column's noise sample: the step's start
    value for semi_implicit, the midpoint value for crank_nicolson_linear.
    `Au` is A·u if the caller has it (crank_nicolson_linear reads A·u; the
    previous step returns it).  Returns the new (u, v) and A·u_new.

    With f switched off (a = b = 0) the forcing g - f(u) is taken as g.  That
    is g - f(u) bit for bit only when g holds no -0.0 (f(u) is +-0.0, and
    -0.0 - -0.0 is +0.0) and f(u) is finite (a = 0 times an overflowing
    power is NaN, which diverges the step either way)."""
    c = run.length(dt)
    if run.spec.scheme == "semi_implicit":
        force = run.g - run.model.nonlin.f(u) if run.nonlinear else run.g
        r_u = u + c.dt_h * w
        r_v = v + dt * (force + run.noise_v * w)
        u_new = c.solve(r_u + c.to_u * r_v)
        Au_new = run.apply_A(u_new)
        v_new = (r_v - dt * Au_new) / c.b
    else:
        if Au is None:
            Au = run.apply_A(u)
        if run.nonlinear:
            u_half = u + 0.5 * dt * (-run.model.delta * u + v + run.h * w)
            force = run.g - run.model.nonlin.f(u_half)
        else:
            force = run.g
        r_u = c.keep_u * u + 0.5 * dt * v + c.dt_h * w
        r_v = (c.keep_v * v
               - 0.5 * dt * Au
               + dt * (force + run.noise_v * w))
        u_new = c.solve(r_u + c.to_u * r_v)
        Au_new = run.apply_A(u_new)
        v_new = (r_v - 0.5 * dt * Au_new) / c.b
    return u_new, v_new, Au_new


def evolve(u0: np.ndarray, z0: np.ndarray, tau: float, t_end: float, path: PathLike,
           model: Model, spec: SolveSpec, observer=None) -> Tuple[np.ndarray, np.ndarray]:
    """March one trajectory from (u0, z0) at tau to t_end and return its
    (u, z); the observer fires at tau, every record_every steps, and at
    t_end.  A shortened final step makes t_end exact.  This is the
    one-column case of `Stepper.march`."""
    return Stepper(model, spec).march([Column(u0, z0, tau, t_end, path, observer)])[0]


def reconstruct_z(v: np.ndarray, t: float, path: PathLike, model: Model) -> np.ndarray:
    """z = v + h*omega(t); u_t is then recoverable as z - delta*u."""
    return v + model.h * path.evaluate(t)
