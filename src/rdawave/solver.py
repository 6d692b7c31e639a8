"""Pathwise time integration of the transformed first-order system.

With lam' = lam + delta^2 - alpha*delta and A = lam' - Laplacian, the system is

    du/dt = -delta u + v + h w(t)
    dv/dt = -(alpha - delta) v - A u - f(u) + g + (delta - alpha) h w(t)

where w(t) is a realized noise path.  Both schemes take the stiff linear part
implicitly, semi-implicit over all of the step and Crank–Nicolson over half of
it, via one SPD solve (2x2 block elimination); the nonlinearity stays explicit.

A 1-D run with f switched on marches on the nodes (tridiagonal LU, 3-point
stencil for A); every other run marches in orthonormal sine (DST-I)
coordinates, where A is diagonal and only f is taken through the transform.
scipy loads with the first `Stepper` that needs it, not with this module:
scipy.sparse and SuperLU (the module attribute `spla`, resolved on first
access) for a march on the nodes, scipy.fft for one in sine coordinates.

State is a plain array with a leading ensemble axis, (S, N) for S trajectories
of N = n**dim node values or sine coefficients.  `Stepper.march` advances any
number of independent trajectories ("columns"), a group of them at a time;
`evolve` is its one-column case.  A trajectory starts and ends as (u, z),
z = u_t + delta*u, on the nodes; only observers see the march's
v = z - h*omega(t).  Outside the march, states are shaped `grid.shape`.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from .grid import Grid, laplacian_matrix
from .model import Model
from .paths import PathLike

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
    """The trajectory left the representable range (NaN/Inf).  From the
    march it carries the diverging column's last finite state: its time
    `t_last` and `max_abs_u` of its node values."""

    def __init__(self, message: str, t_last=None, max_abs_u=None):
        super().__init__(message)
        self.t_last, self.max_abs_u = t_last, max_abs_u


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
    """Whether x is a whole, finite number of steps of length dt, to roundoff."""
    ratio = x / dt
    return math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9 * max(1.0, ratio)


def check_path_alignment(dt_path: float, dt: float) -> None:
    """Path nodes and solver steps must line up: dt_path and dt have an
    integer ratio, either way round.  A frozen path (dt_path = 0) has no grid."""
    if dt_path > 0.0 and not whole_steps(max(dt_path, dt), min(dt_path, dt)):
        raise ValueError(
            f"dt_path={dt_path} and solver dt={dt} are not aligned: "
            "they need an integer ratio")


def step_count(tau: float, t_end: float, dt: float) -> int:
    """The number of steps of `dt` from tau to t_end, which must be whole."""
    if not whole_steps(t_end - tau, dt):
        raise ValueError(f"tau={tau} to t_end={t_end} is not a whole number of steps of dt={dt}")
    return round((t_end - tau) / dt)


@dataclass(eq=False)
class Column:
    """One trajectory of a march: from `start()` = (u, z) at tau to t_end
    along `path`.  The march calls `start` when it reaches tau, and
    `finish(u, z)` with the final (u, z) as the column's group ends; by
    default the final state itself is what the march returns.  The
    observer, if any, is called as `observer(t, u, v)` at tau, after every
    `record_every` of the column's own steps, and at t_end; u and v are
    views of the march state shaped `grid.shape`, not to be written.  All
    three run under the march's `np.errstate`."""

    start: Callable[[], Tuple[np.ndarray, np.ndarray]]
    tau: float
    t_end: float
    path: PathLike
    observer: Optional[Callable[[float, np.ndarray, np.ndarray], None]] = None
    finish: Callable[[np.ndarray, np.ndarray], Any] = lambda u, z: (u, z)


@dataclass(eq=False)
class _Plan:
    col: Column
    noise: np.ndarray  # the scheme's noise sample for each of its steps


class Stepper:
    """Everything one (model, spec) run needs, built once: the stability
    check, the coordinates of the march, the model arrays of the step in
    them, and the implicit solve and constants of a step of length
    `spec.dt`.  Build one per experiment and march all its columns through
    it: every column is a whole number, at least one, of those steps.

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
        # the part of the step taken implicitly: all of it (semi-implicit) or
        # half (CN, which keeps keep_u*u, keep_v*v); b divides v_new, to_u
        # weighs r_v in the solve's right side
        self.idt = dt if spec.scheme == "semi_implicit" else dt / 2.0
        a = 1.0 + model.delta * self.idt
        self.b = 1.0 + (model.alpha - model.delta) * self.idt
        coef = self.idt * self.idt / self.b
        self.to_u = self.idt / self.b
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

    def march(self, columns: Sequence[Column]) -> list:
        """Advance every column from its tau to its t_end and return, in the
        order given, each column's `finish(u, z)` of its final (u, z), each
        shaped `grid.shape`.  Every column is checked before any is stepped:
        its run must be a whole number of steps, at least one (`step_count`),
        and its path's `evaluate` must accept its tau and t_end.

        Columns march in groups of at most `width`, earliest start first, one
        group at a time, so the march holds at most one group's states.
        Within a group all columns end on the same step: a column joins when
        the march reaches its start, so the active columns are always a
        leading block of the state."""
        plans = [self._plan(col) for col in columns]
        idx = sorted(range(len(plans)), key=lambda i: -len(plans[i].noise))
        finals = [None] * len(plans)
        # silent on overflow: `check` catches every non-finite state the groups reach
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, len(idx), self.width):
                chunk = idx[lo:lo + self.width]
                for i, final in zip(chunk, self._march_group([plans[i] for i in chunk])):
                    finals[i] = final
        return finals

    def _plan(self, col: Column) -> _Plan:
        dt, path = self.spec.dt, col.path
        n = step_count(col.tau, col.t_end, dt)
        if n < 1:
            raise ValueError(f"tau={col.tau} must be at least one step of dt={dt} "
                             f"before t_end={col.t_end}")
        check_path_alignment(path.dt_path, dt)
        # `join` reads omega at tau, `reconstruct_z` at t_end: refuse either off the path
        path.evaluate(np.array([col.tau, col.t_end]))
        # step starts; the midpoint scheme samples half a step later
        ts = col.tau + np.arange(n) * dt
        if self.spec.scheme == "crank_nicolson_linear":
            ts += 0.5 * dt
        return _Plan(col, path.evaluate(ts))

    def _march_group(self, group: List[_Plan]) -> list:
        grid, h, dt, every, S = (self.model.grid, self.model.h, self.spec.dt,
                                 self.spec.record_every, self.S)
        n_steps = len(group[0].noise)
        start = [n_steps - len(p.noise) for p in group]
        noise = np.zeros((n_steps, len(group)))
        joins = Counter(start)  # step -> columns that join before it
        records = {}
        for c, p in enumerate(group):
            noise[start[c]:, c] = p.noise
            if p.col.observer is not None:  # no record transforms for the unobserved
                for j in range(every, len(p.noise), every):  # t_end records itself
                    records.setdefault(start[c] + j - 1, []).append(c)

        def fire(c, t, u_c, v_c):
            obs = group[c].col.observer
            if obs is not None:
                obs(t, u_c.reshape(grid.shape), v_c.reshape(grid.shape))

        def join(k, u, v):
            """u and v with the columns that join at step k appended, as `S`
            of their node values; each builds its start state and fires its
            observer at its tau."""
            u_in, v_in = [], []
            for c in range(len(u), len(u) + joins[k]):
                col = group[c].col
                u0, z0 = col.start()
                u_in.append(np.ravel(u0))
                # into the march's variable on the nodes: v0 = z0 - h*omega(tau)
                v_in.append(np.ravel(z0 - h * col.path.evaluate(col.tau)))
                fire(c, col.tau, u_in[-1], v_in[-1])
            return np.vstack([u, S(np.vstack(u_in))]), np.vstack([v, S(np.vstack(v_in))])

        def check(k, u_new, v_new):
            # a non-finite u_new makes A·u_new, and so v_new, non-finite
            if not np.isfinite(v_new).all():
                c = int(np.argmin(np.isfinite(v_new).all(axis=1)))
                col = group[c].col
                t = col.tau + (k - start[c]) * dt
                # u still holds the column's last finite state, at t
                raise DivergenceError(
                    f"non-finite state after step at t={t} (dt={dt}) "
                    f"of the column from tau={col.tau} on {_path_name(col.path)}",
                    t_last=t, max_abs_u=float(np.max(np.abs(S(u[c])))))

        u = v = np.empty((0, grid.n ** grid.dim))
        Au = None  # A·u, carried from step to step; rebuilt when columns join
        for k in range(n_steps):
            if k in joins:
                u, v = join(k, u, v)
                Au = None
            u_new, v_new, Au = step(self, u, v, noise[k, :len(u), None], Au)
            check(k, u_new, v_new)
            u, v = u_new, v_new
            for c in records.get(k, ()):
                fire(c, group[c].col.tau + (k + 1 - start[c]) * dt, S(u[c]), S(v[c]))
        u, v = S(u), S(v)
        finals = []
        for c, p in enumerate(group):
            col, u_c, v_c = p.col, u[c].reshape(grid.shape), v[c].reshape(grid.shape)
            fire(c, col.t_end, u_c, v_c)
            finals.append(col.finish(u_c, reconstruct_z(v_c, col.t_end, col.path, self.model)))
        return finals


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
    else:
        if Au is None:
            Au = run.apply_A(u)
        force = run.g
        if run.nonlinear:
            u_half = u + run.idt * (-run.model.delta * u + v + run.h * w)
            force = run.g - S(f(S(u_half)))
        r_u = run.keep_u * u + run.idt * v + run.dt_h * w
        r_v = run.keep_v * v - run.idt * Au + dt * (force + run.noise_v * w)
    # both schemes take idt of the step implicitly, by one solve
    u_new = run.solve(r_u + run.to_u * r_v)
    Au_new = run.apply_A(u_new)
    return u_new, (r_v - run.idt * Au_new) / run.b, Au_new


def evolve(u0: np.ndarray, z0: np.ndarray, tau: float, t_end: float, path: PathLike,
           model: Model, spec: SolveSpec, observer=None) -> Tuple[np.ndarray, np.ndarray]:
    """March one trajectory from (u0, z0) at tau to t_end and return its
    (u, z); the observer fires at tau, every record_every steps, and at
    t_end, which must be a whole number of steps after tau.  This is the
    one-column case of `Stepper.march`."""
    return Stepper(model, spec).march([Column(lambda: (u0, z0), tau, t_end, path, observer)])[0]


def reconstruct_z(v: np.ndarray, t: float, path: PathLike, model: Model) -> np.ndarray:
    """z = v + h*omega(t); u_t is then recoverable as z - delta*u."""
    return v + model.h * path.evaluate(t)
