"""Pathwise time integration of the transformed first-order system.

With lam' = lam + delta^2 - alpha*delta and A = lam' - Laplacian, the system is

    du/dt = -delta u + v + h w(t)
    dv/dt = -(alpha - delta) v - A u - f(u) + g + (delta - alpha) h w(t)

where w(t) is a realized noise path.  Both schemes treat the stiff linear part
implicitly via one SPD solve per step (2x2 block elimination); the nonlinearity
stays explicit.

State is a plain array with a leading ensemble axis, (S, N) for S trajectories
on N = n**dim nodes.  `Stepper.march` advances any number of independent
trajectories ("columns") together; `evolve` is its one-column case.  Outside
the march, u and v are arrays shaped `grid.shape`.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dstn, idstn

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
    "column_from",
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
    when n+1 has only small prime factors).  The transforms run row by row:
    one transform over the whole batch measured slower per row.
    """
    if grid.dim == 1:
        mat = (a + coef * lam_prime) * sp.identity(grid.n, format="csr") \
            - coef * laplacian_matrix(grid)
        lu = spla.splu(mat.tocsc())
        return lambda rhs: lu.solve(rhs.T).T
    n = grid.n
    # eigenvalues of -Laplacian_h along one axis
    mu = (4.0 / grid.spacing ** 2) * np.sin(np.arange(1, n + 1) * math.pi / (2.0 * (n + 1))) ** 2
    diag = np.full(grid.shape, a + coef * lam_prime)
    for ax in range(grid.dim):
        diag += coef * mu.reshape([n if i == ax else 1 for i in range(grid.dim)])

    def solve(rhs):
        batch = rhs.reshape(-1, *grid.shape)
        out = np.empty_like(batch)
        for row, r in zip(out, batch):
            row[...] = idstn(dstn(r, type=1) / diag, type=1)
        return out.reshape(rhs.shape)

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
    """One trajectory of a march: (u, v) at tau, marched to t_end along
    `path`.  Each observer is called as `obs(t, u, v)` at tau, after every
    `record_every` of the column's own steps, and at t_end; u and v are
    views of the march state shaped `grid.shape`, which it must not write."""

    u: np.ndarray
    v: np.ndarray
    tau: float
    t_end: float
    path: PathLike
    observers: Sequence[Callable[[float, np.ndarray, np.ndarray], None]] = ()


@dataclass(eq=False)
class _Plan:
    col: Column
    n_full: int
    rem: float
    noise: np.ndarray  # the scheme's noise sample for each step, rem step last


class Stepper:
    """Everything one (model, spec) run needs, built once: the stability
    check, the implicit solve per step length, and the model arrays of the
    step.  Build one per experiment and march all its columns through it."""

    def __init__(self, model: Model, spec: SolveSpec):
        grid = model.grid
        check_stability(grid, spec.dt, model.lam_prime, spec.stability_factor)
        self.model = model
        self.spec = spec
        self.h = model.h.ravel()
        self.g = model.g.ravel()
        self.lap = laplacian_matrix(grid)
        self.width = max(1, GROUP_NODES // grid.n ** grid.dim)
        self._solves = {}

    def solve_for(self, dt: float):
        """The implicit solve for a step of length dt, built on first use."""
        if dt not in self._solves:
            m = self.model
            if self.spec.scheme == "semi_implicit":
                a = 1.0 + m.delta * dt
                b = 1.0 + (m.alpha - m.delta) * dt
                coef = dt * dt / b
            else:
                a = 1.0 + m.delta * dt / 2.0
                b = 1.0 + (m.alpha - m.delta) * dt / 2.0
                coef = dt * dt / (4.0 * b)
            self._solves[dt] = implicit_solve(m.grid, a, coef, m.lam_prime)
        return self._solves[dt]

    def apply_A(self, u: np.ndarray) -> np.ndarray:
        return self.model.lam_prime * u - (self.lap @ u.T).T

    def march(self, columns: Sequence[Column]) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Advance every column from its tau to its t_end and return the
        final (u, v) at t_end, each shaped `grid.shape`, in the order given.
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
        grid, dt, every = self.model.grid, self.spec.dt, self.spec.record_every
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
            uc, vc = u[c].reshape(grid.shape), v[c].reshape(grid.shape)
            for obs in group[c].col.observers:
                obs(t, uc, vc)

        def check(dt_k, k):
            if not (np.isfinite(u).all() and np.isfinite(v).all()):
                c = int(np.argmin(np.isfinite(u).all(axis=1) & np.isfinite(v).all(axis=1)))
                t = group[c].col.tau + (k - start[c]) * dt
                raise DivergenceError(f"non-finite state after step at t={t} (dt={dt_k})")

        u = v = np.empty((0, grid.n ** grid.dim))
        for k in range(n_steps + 1):
            if k in joins:
                a = len(u)
                new = group[a:a + joins[k]]
                u = np.vstack([u] + [np.ravel(p.col.u) for p in new])
                v = np.vstack([v] + [np.ravel(p.col.v) for p in new])
                for c in range(a, len(u)):
                    fire(c, group[c].col.tau)
            if k == n_steps:
                break
            u, v = step(self, u, v, dt, noise[k, :len(u), None])
            check(dt, k)
            for c in records.get(k, ()):
                fire(c, group[c].col.tau + (k + 1 - start[c]) * dt)
        if rem > 0.0:
            u, v = step(self, u, v, rem, np.array([p.noise[-1] for p in group])[:, None])
            check(rem, n_steps)
        for c, p in enumerate(group):
            if p.col.t_end != p.col.tau:
                fire(c, p.col.t_end)
        return [(u[c].reshape(grid.shape), v[c].reshape(grid.shape))
                for c in range(len(group))]


def step(run: Stepper, u: np.ndarray, v: np.ndarray, dt: float,
         w: np.ndarray):
    """One time step of every column of (u, v), each of shape (S, N).
    `w` (shape (S, 1)) holds each column's noise sample: the step's start
    value for semi_implicit, the midpoint value for crank_nicolson_linear.
    Returns the new (u, v)."""
    model = run.model
    h, g = run.h, run.g
    delta, alpha = model.delta, model.alpha
    solve = run.solve_for(dt)

    if run.spec.scheme == "semi_implicit":
        b = 1.0 + (alpha - delta) * dt
        fu = model.nonlin.f(u)
        r_u = u + dt * h * w
        r_v = v + dt * (g - fu + (delta - alpha) * h * w)
        u_new = solve(r_u + (dt / b) * r_v)
        v_new = (r_v - dt * run.apply_A(u_new)) / b
    else:
        b = 1.0 + (alpha - delta) * dt / 2.0
        u_half = u + 0.5 * dt * (-delta * u + v + h * w)
        fu = model.nonlin.f(u_half)
        r_u = (1.0 - delta * dt / 2.0) * u + 0.5 * dt * v + dt * h * w
        r_v = ((1.0 - (alpha - delta) * dt / 2.0) * v
               - 0.5 * dt * run.apply_A(u)
               + dt * (g - fu + (delta - alpha) * h * w))
        u_new = solve(r_u + (dt / (2.0 * b)) * r_v)
        v_new = (r_v - 0.5 * dt * run.apply_A(u_new)) / b
    return u_new, v_new


def evolve(u0: np.ndarray, v0: np.ndarray, tau: float, t_end: float, path: PathLike,
           model: Model, spec: SolveSpec, observers=()) -> Tuple[np.ndarray, np.ndarray]:
    """March one trajectory from (u0, v0) at tau to t_end and return its
    (u, v); observers fire at tau, every record_every steps, and at t_end.
    A shortened final step makes t_end exact.  This is the one-column case
    of `Stepper.march`."""
    return Stepper(model, spec).march([Column(u0, v0, tau, t_end, path, observers)])[0]


def reconstruct_z(v: np.ndarray, t: float, path: PathLike, model: Model) -> np.ndarray:
    """z = v + h*omega(t); u_t is then recoverable as z - delta*u."""
    return v + model.h * path.evaluate(t)


def column_from(u0: np.ndarray, z0: np.ndarray, tau: float, t_end: float, path: PathLike,
                model: Model, observers=()) -> Column:
    """A trajectory that starts at tau from (u0, z0), with z = u_t + delta*u.
    Its final state holds v; pass it to `reconstruct_z` for z."""
    return Column(u0, z0 - model.h * path.evaluate(tau), tau, t_end, path, observers)
