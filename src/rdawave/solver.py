"""Pathwise time integration of the transformed first-order system.

With lam' = lam + delta^2 - alpha*delta and A = lam' - Laplacian, the system is

    du/dt = -delta u + v + h w(t)
    dv/dt = -(alpha - delta) v - A u - f(u) + g + (delta - alpha) h w(t)

where w(t) is a realized noise path.  Both schemes treat the stiff linear part
implicitly via one SPD solve per step (2x2 block elimination); the nonlinearity
stays explicit.

A 1-D run with f switched on marches on the nodes (tridiagonal LU, 3-point
stencil for A); every other run marches in orthonormal sine (DST-I)
coordinates, where A is diagonal and only f is taken through the transform.
scipy loads with the first `Stepper` that needs it, not with this module:
scipy.sparse and SuperLU (the module attribute `spla`, resolved on first
access) for a march on the nodes, scipy.fft for one in sine coordinates.

State is a plain array with a leading ensemble axis, (S, N) for S trajectories
of N = n**dim node values or sine coefficients.  `Stepper.march` advances any
number of independent trajectories ("columns") together; `evolve` is its
one-column case.  A trajectory starts and ends as (u, z), z = u_t + delta*u,
on the nodes; only observers see the march's v = z - h*omega(t).  Outside
the march, states are shaped `grid.shape`.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .grid import Grid, laplacian_matrix
from .model import Model
from .paths import PathLike, PathRangeError

__all__ = [
    "SolveSpec",
    "DivergenceError",
    "Column",
    "Stepper",
    "step",
    "sine_coordinates",
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
    """Sparse-LU solver for the SPD system ((a + coef*lam') I - coef*Laplacian_h) x = rhs
    on the nodes (the march uses it for 1-D runs with f switched on).

    The returned `solve(rhs)` takes one right-hand side of shape (N,) or a
    batch of shape (S, N), one per row, and returns an array of the same
    shape; each row is solved exactly as it would be alone.
    """
    import scipy.sparse as sp

    mat = (a + coef * lam_prime) * sp.identity(grid.n ** grid.dim, format="csr") \
        - coef * laplacian_matrix(grid)
    # through the module, so a stand-in set as `solver.spla` is the one called
    lu = sys.modules[__name__].spla.splu(mat.tocsc())
    return lambda rhs: lu.solve(rhs.T).T


def __getattr__(name):
    if name == "spla":  # scipy.sparse.linalg, loaded on first access
        import scipy.sparse.linalg
        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def sine_coordinates(grid: Grid):
    """(S, mu): S maps an array of shape (N,), or a batch with one per row,
    between node values and orthonormal DST-I coefficients and is its own
    inverse (each row as if transformed alone; fastest when n+1 has only
    small prime factors); mu, shape (N,), is -Laplacian_h's eigenvalue on
    each sine mode."""
    from scipy.fft import dstn  # here: runs on the nodes never load scipy.fft

    n = grid.n
    # eigenvalues of -Laplacian_h along one axis
    mu1 = (4.0 / grid.spacing ** 2) * np.sin(np.arange(1, n + 1) * math.pi / (2.0 * (n + 1))) ** 2
    mu = np.zeros(grid.shape)
    for ax in range(grid.dim):
        mu = mu + mu1.reshape([n if i == ax else 1 for i in range(grid.dim)])
    axes = tuple(range(1, grid.dim + 1))

    def S(x):
        return dstn(x.reshape(-1, *grid.shape), type=1, norm="ortho", axes=axes).reshape(x.shape)

    return S, mu.ravel()


def _on_nodes(x):
    return x


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


class Stepper:
    """Everything one (model, spec) run needs, built once: the stability
    check, the coordinates of the march, the model arrays of the step in
    them, and the implicit solve and constants of a step of length
    `spec.dt`.  Build one per experiment and march all its columns through
    it; a shortened final step is a step of its own `Stepper`.

    `S` maps node values to the march's coordinates and back (it is its
    own inverse): the identity on the nodes, the orthonormal DST-I in sine
    coordinates, where `eig` holds A's eigenvalue lam' + mu on each mode
    (None on the nodes)."""

    def __init__(self, model: Model, spec: SolveSpec):
        grid, dt = model.grid, spec.dt
        check_stability(grid, dt, model.lam_prime, spec.stability_factor)
        self.model = model
        self.spec = spec
        # with a = b = 0 the step skips f (and CN's u_half, which only feeds f)
        self.nonlinear = model.nonlin.a != 0.0 or model.nonlin.b != 0.0
        # a 1-D nonlinear step needs f on the nodes, where a tridiagonal LU
        # and the stencil beat transforming u there and f(u) back every step
        if grid.dim == 1 and self.nonlinear:
            self.S, self.eig = _on_nodes, None
        else:
            self.S, mu = sine_coordinates(grid)
            self.eig = model.lam_prime + mu
        self.h = self.S(model.h.ravel())
        self.g = self.S(model.g.ravel())
        self.noise_v = (model.delta - model.alpha) * self.h  # h's weight in dv/dt
        self.width = max(1, GROUP_NODES // grid.n ** grid.dim)
        # the step's constants: b divides v_new, to_u weighs r_v in the
        # solve's right side; CN halves dt in both and keeps keep_u*u, keep_v*v
        if spec.scheme == "semi_implicit":
            a = 1.0 + model.delta * dt
            self.b = 1.0 + (model.alpha - model.delta) * dt
            coef = dt * dt / self.b
            self.to_u = dt / self.b
        else:
            a = 1.0 + model.delta * dt / 2.0
            self.b = 1.0 + (model.alpha - model.delta) * dt / 2.0
            coef = dt * dt / (4.0 * self.b)
            self.to_u = dt / (2.0 * self.b)
        self.keep_u = 1.0 - model.delta * dt / 2.0
        self.keep_v = 1.0 - (model.alpha - model.delta) * dt / 2.0
        self.dt_h = dt * self.h
        if self.eig is None:
            self.solve = implicit_solve(grid, a, coef, model.lam_prime)
        else:
            diag = a + coef * self.eig
            self.solve = lambda rhs: rhs / diag

    def apply_A(self, u: np.ndarray) -> np.ndarray:
        """A·u of a state (S, N) in the march's coordinates."""
        if self.eig is not None:
            return self.eig * u
        # 1-D nodes: (lam' + 2/h^2) u_i - (u_{i-1} + u_{i+1})/h^2, zero outside
        h2 = self.model.grid.spacing ** 2
        nb = np.empty_like(u)
        nb[:, 0] = u[:, 1]
        nb[:, -1] = u[:, -2]
        np.add(u[:, :-2], u[:, 2:], out=nb[:, 1:-1])
        nb /= h2
        Au = (self.model.lam_prime + 2.0 / h2) * u
        Au -= nb
        return Au

    def march(self, columns: Sequence[Column]) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Advance every column from its tau to its t_end and return the
        final (u, z) at t_end, each shaped `grid.shape`, in the order given.
        Every column is checked before any is stepped.

        Columns with the same shortened final step share one march, in
        groups of at most `width` columns, and that step's own `Stepper`.
        Within a group all columns end on the same step: a column joins when
        the march reaches its start, so the active columns are always a
        leading block of the state."""
        plans = [self._plan(col) for col in columns]
        by_rem = {}
        for i, p in enumerate(plans):
            by_rem.setdefault(p.rem, []).append(i)
        finals = [None] * len(plans)
        # silent on overflow: `check` catches every non-finite state the groups reach
        with np.errstate(over="ignore", invalid="ignore"):
            for rem, idx in by_rem.items():
                rem_run = Stepper(self.model, replace(self.spec, dt=rem)) if rem > 0.0 else None
                idx.sort(key=lambda i: -plans[i].n_full)  # earliest start first
                for lo in range(0, len(idx), self.width):
                    chunk = idx[lo:lo + self.width]
                    for i, final in zip(chunk, self._march_group([plans[i] for i in chunk],
                                                                 rem_run)):
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
        return _Plan(col, n_full, rem, path.evaluate(ts))

    def _march_group(self, group: List[_Plan],
                     rem_run: Optional["Stepper"]) -> List[Tuple[np.ndarray, np.ndarray]]:
        grid, h, dt, every, S = (self.model.grid, self.model.h, self.spec.dt,
                                 self.spec.record_every, self.S)
        rem = group[0].rem
        n_steps = group[0].n_full
        start = [n_steps - p.n_full for p in group]
        noise = np.zeros((n_steps, len(group)))
        joins = Counter(start)  # step -> columns that join before it
        records = {}
        for c, p in enumerate(group):
            noise[start[c]:, c] = p.noise[:p.n_full]
            last = p.n_full if rem > 0.0 else p.n_full - 1  # t_end records itself
            if p.col.observer is not None:  # no record transforms for the unobserved
                for j in range(every, last + 1, every):
                    records.setdefault(start[c] + j - 1, []).append(c)

        def fire(c, t, u_c, v_c):
            obs = group[c].col.observer
            if obs is not None:
                obs(t, u_c.reshape(grid.shape), v_c.reshape(grid.shape))

        def check(dt_k, k):
            # a non-finite u_new makes A·u_new, and so v_new, non-finite
            if not np.isfinite(v).all():
                c = int(np.argmin(np.isfinite(v).all(axis=1)))
                col = group[c].col
                t = col.tau + (k - start[c]) * dt
                raise DivergenceError(f"non-finite state after step at t={t} (dt={dt_k}) "
                                      f"of the column from tau={col.tau} on {_path_name(col.path)}")

        u = v = np.empty((0, grid.n ** grid.dim))
        Au = None  # A·u, carried from step to step; rebuilt when columns join
        for k in range(n_steps + 1):
            if k in joins:
                a = len(u)
                cols = [p.col for p in group[a:a + joins[k]]]
                u_in = np.vstack([np.ravel(col.u) for col in cols])
                # into the march's variable on the nodes: v0 = z0 - h*omega(tau)
                v_in = np.vstack([np.ravel(col.z - h * col.path.evaluate(col.tau))
                                  for col in cols])
                for i, col in enumerate(cols):
                    fire(a + i, col.tau, u_in[i], v_in[i])
                u, v = np.vstack([u, S(u_in)]), np.vstack([v, S(v_in)])
                Au = None
            if k == n_steps:
                break
            u, v, Au = step(self, u, v, noise[k, :len(u), None], Au)
            check(dt, k)
            for c in records.get(k, ()):
                fire(c, group[c].col.tau + (k + 1 - start[c]) * dt, S(u[c]), S(v[c]))
        if rem_run is not None:
            u, v, _ = step(rem_run, u, v, np.array([p.noise[-1] for p in group])[:, None], Au)
            check(rem, n_steps)
        u, v = S(u), S(v)
        if rem == 0.0 and n_steps in joins:  # the last to join never stepped
            u[a:], v[a:] = u_in, v_in
        for c, p in enumerate(group):
            if p.col.t_end != p.col.tau:
                fire(c, p.col.t_end, u[c], v[c])
        return [(u[c].reshape(grid.shape),
                 reconstruct_z(v[c].reshape(grid.shape), p.col.t_end, p.col.path, self.model))
                for c, p in enumerate(group)]


def _path_name(path: PathLike) -> str:
    """'path seed N' for a sample path or a shift of one, else 'a frozen path'."""
    seed = getattr(getattr(path, "base", path), "seed", None)
    return "a frozen path" if seed is None else f"path seed {seed}"


def step(run: Stepper, u: np.ndarray, v: np.ndarray, w: np.ndarray, Au=None):
    """One time step, of length `run.spec.dt`, of every column of (u, v),
    each of shape (S, N) in the stepper's coordinates (`run.S` of the node
    values).
    `w` (shape (S, 1)) holds each column's noise sample: the step's start
    value for semi_implicit, the midpoint value for crank_nicolson_linear.
    `Au` is A·u if the caller has it (crank_nicolson_linear reads A·u; the
    previous step returns it).  Returns the new (u, v) and A·u_new.

    f is evaluated on the nodes, as S f(S u).  With f switched off
    (a = b = 0) the forcing g - f(u) is taken as g.  That is g - f(u) bit for
    bit only when g holds no -0.0 (f(u) is +-0.0, and -0.0 - -0.0 is +0.0)
    and f(u) is finite (a = 0 times an overflowing power is NaN, which
    diverges the step either way)."""
    S, f, dt = run.S, run.model.nonlin.f, run.spec.dt
    if run.spec.scheme == "semi_implicit":
        force = run.g - S(f(S(u))) if run.nonlinear else run.g
        r_u = u + run.dt_h * w
        r_v = v + dt * (force + run.noise_v * w)
        u_new = run.solve(r_u + run.to_u * r_v)
        Au_new = run.apply_A(u_new)
        v_new = (r_v - dt * Au_new) / run.b
    else:
        if Au is None:
            Au = run.apply_A(u)
        if run.nonlinear:
            u_half = u + 0.5 * dt * (-run.model.delta * u + v + run.h * w)
            force = run.g - S(f(S(u_half)))
        else:
            force = run.g
        r_u = run.keep_u * u + 0.5 * dt * v + run.dt_h * w
        r_v = (run.keep_v * v
               - 0.5 * dt * Au
               + dt * (force + run.noise_v * w))
        u_new = run.solve(r_u + run.to_u * r_v)
        Au_new = run.apply_A(u_new)
        v_new = (r_v - 0.5 * dt * Au_new) / run.b
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
