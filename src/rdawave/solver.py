"""Pathwise time integration of the transformed first-order system.

With lam' = lam + delta^2 - alpha*delta and A = lam' - Laplacian, the system is

    du/dt = -delta u + v + h w(t)
    dv/dt = -(alpha - delta) v - A u - f(u) + g + (delta - alpha) h w(t)

where w(t) is a realized noise path.  Both schemes treat the stiff linear part
implicitly via one SPD solve per step (2x2 block elimination); the nonlinearity
stays explicit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dstn, idstn

from .grid import Field, Grid, laplacian_matrix
from .model import Model
from .paths import PathLike, PathRangeError

__all__ = [
    "StateUV",
    "SolveSpec",
    "DivergenceError",
    "step",
    "evolve",
    "evolve_from",
    "reconstruct_z",
    "cocycle_apply",
]

SCHEMES = ("semi_implicit", "crank_nicolson_linear")


class DivergenceError(ArithmeticError):
    """The trajectory left the representable range (NaN/Inf)."""


@dataclass(eq=False)
class StateUV:
    u: Field
    v: Field
    t: float

    def copy(self) -> "StateUV":
        return StateUV(self.u.copy(), self.v.copy(), self.t)


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


def implicit_solve(grid: Grid, a: float, coef: float, lam_prime: float):
    """Solver for the SPD system ((a + coef*lam') I - coef*Laplacian_h) x = rhs.

    1-D: sparse LU of the tridiagonal matrix.  2-D/3-D: DST-I diagonalises the
    Dirichlet Laplacian on every axis, so one forward transform, a diagonal
    divide and one inverse transform solve the system to roundoff (fastest
    when n+1 has only small prime factors).
    """
    if grid.dim == 1:
        mat = (a + coef * lam_prime) * sp.identity(grid.n, format="csr") \
            - coef * laplacian_matrix(grid)
        return spla.splu(mat.tocsc()).solve
    n = grid.n
    # eigenvalues of -Laplacian_h along one axis
    mu = (4.0 / grid.spacing ** 2) * np.sin(np.arange(1, n + 1) * math.pi / (2.0 * (n + 1))) ** 2
    diag = np.full(grid.shape, a + coef * lam_prime)
    for ax in range(grid.dim):
        diag += coef * mu.reshape([n if i == ax else 1 for i in range(grid.dim)])

    def solve(rhs):
        return idstn(dstn(rhs.reshape(grid.shape), type=1) / diag, type=1).ravel()

    return solve


def _build_solve(grid: Grid, dt: float, scheme: str, model: Model):
    if scheme == "semi_implicit":
        a = 1.0 + model.delta * dt
        b = 1.0 + (model.alpha - model.delta) * dt
        coef = dt * dt / b
    else:
        a = 1.0 + model.delta * dt / 2.0
        b = 1.0 + (model.alpha - model.delta) * dt / 2.0
        coef = dt * dt / (4.0 * b)
    return implicit_solve(grid, a, coef, model.lam_prime)


def _check_stability(grid: Grid, dt: float, model: Model, factor: float) -> None:
    bound = factor / math.sqrt(grid.laplacian_max_eig() + max(model.lam_prime, 0.0))
    if dt > bound:
        raise ValueError(
            f"dt={dt} exceeds the stability bound {bound:.3g} for the explicit part")


def _apply_A(grid: Grid, lam_prime: float, u: np.ndarray) -> np.ndarray:
    return lam_prime * u - laplacian_matrix(grid) @ u


def step(state: StateUV, dt: float, omega_val: float, model: Model, solve,
         scheme: str = "semi_implicit") -> StateUV:
    """One time step.  `omega_val` is the noise sample the scheme uses:
    the step's start value for semi_implicit, the midpoint value for
    crank_nicolson_linear.  `solve` is the implicit solve for this `dt`
    and scheme, as `evolve` builds it."""
    grid = state.u.grid
    u = state.u.values.ravel()
    v = state.v.values.ravel()
    h = model.h.values.ravel()
    g = model.g.values.ravel()
    delta, alpha, lp = model.delta, model.alpha, model.lam_prime

    if scheme == "semi_implicit":
        b = 1.0 + (alpha - delta) * dt
        fu = model.nonlin.f(state.u.values).ravel()
        r_u = u + dt * h * omega_val
        r_v = v + dt * (g - fu + (delta - alpha) * h * omega_val)
        u_new = solve(r_u + (dt / b) * r_v)
        v_new = (r_v - dt * _apply_A(grid, lp, u_new)) / b
    else:
        b = 1.0 + (alpha - delta) * dt / 2.0
        u_half = u + 0.5 * dt * (-delta * u + v + h * omega_val)
        fu = model.nonlin.f(u_half.reshape(grid.shape)).ravel()
        r_u = (1.0 - delta * dt / 2.0) * u + 0.5 * dt * v + dt * h * omega_val
        r_v = ((1.0 - (alpha - delta) * dt / 2.0) * v
               - 0.5 * dt * _apply_A(grid, lp, u)
               + dt * (g - fu + (delta - alpha) * h * omega_val))
        u_new = solve(r_u + (dt / (2.0 * b)) * r_v)
        v_new = (r_v - 0.5 * dt * _apply_A(grid, lp, u_new)) / b

    if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
        raise DivergenceError(f"non-finite state after step at t={state.t} (dt={dt})")
    return StateUV(Field(grid, u_new), Field(grid, v_new), state.t + dt)


def _check_path_alignment(path: PathLike, dt: float) -> None:
    dtp = path.dt_path
    if dtp <= 0.0:
        return  # frozen paths have no grid
    ratio = dtp / dt if dtp >= dt else dt / dtp
    if abs(ratio - round(ratio)) > 1e-9 * ratio:
        raise ValueError(
            f"solver dt={dt} and path dt={dtp} are not integer-ratio aligned")


def evolve(initial: StateUV, tau: float, t_end: float, path: PathLike,
           model: Model, spec: SolveSpec, observers=()) -> StateUV:
    """March from tau to t_end; observers fire at tau, every record_every
    steps, and at t_end.  A shortened final step makes t_end exact."""
    if tau > t_end:
        raise ValueError("tau must be <= t_end")
    _check_path_alignment(path, spec.dt)
    eps = 1e-9 * max(1.0, abs(tau), abs(t_end))
    if tau < path.t_lo - eps or t_end > path.t_hi + eps:
        raise PathRangeError(
            f"path covers [{path.t_lo}, {path.t_hi}], run needs [{tau}, {t_end}]")

    grid = initial.u.grid
    _check_stability(grid, spec.dt, model, spec.stability_factor)

    state = StateUV(initial.u, initial.v, tau)
    for obs in observers:
        obs(state)
    if t_end == tau:
        return state

    total = t_end - tau
    n_full = int(math.floor(total / spec.dt + 1e-9))
    rem = total - n_full * spec.dt
    if rem <= eps:
        rem = 0.0

    solve = _build_solve(grid, spec.dt, spec.scheme, model)
    for i in range(n_full):
        t_n = tau + i * spec.dt
        omega_val = _scheme_omega(path, t_n, spec.dt, spec.scheme)
        state = step(state, spec.dt, omega_val, model, solve, spec.scheme)
        state.t = tau + (i + 1) * spec.dt
        if (i + 1) % spec.record_every == 0 and not (i + 1 == n_full and rem == 0.0):
            for obs in observers:
                obs(state)
    if rem > 0.0:
        omega_val = _scheme_omega(path, tau + n_full * spec.dt, rem, spec.scheme)
        state = step(state, rem, omega_val, model,
                     _build_solve(grid, rem, spec.scheme, model), spec.scheme)
    state.t = t_end
    for obs in observers:
        obs(state)
    return state


def _scheme_omega(path: PathLike, t_start: float, dt: float, scheme: str) -> float:
    if scheme == "semi_implicit":
        return path.evaluate(t_start)
    return path.evaluate(t_start + 0.5 * dt)


def reconstruct_z(state: StateUV, path: PathLike, model: Model) -> Field:
    """z = v + h*omega(t); u_t is then recoverable as z - delta*u."""
    w = path.evaluate(state.t)
    return Field(state.u.grid, state.v.values + model.h.values * w)


def evolve_from(u0: Field, z0: Field, tau: float, t_end: float, path: PathLike,
                model: Model, spec: SolveSpec, observers=()) -> StateUV:
    """Start a trajectory at tau from (u0, z0), with z = u_t + delta*u, and
    march it to t_end (see `evolve`).  The returned state holds v; pass it
    to `reconstruct_z` for z."""
    v0 = Field(u0.grid, z0.values - model.h.values * path.evaluate(tau))
    return evolve(StateUV(u0, v0, tau), tau, t_end, path, model, spec, observers)


def cocycle_apply(t_len: float, path: PathLike, x0, model: Model,
                  spec: SolveSpec, pullback: bool = False):
    """Apply the cocycle to (u0, z0).

    Forward form: solve on [0, t_len] with `path`.  Pullback form
    (Phi(t, theta_{-t} omega, .)): solve on [-t_len, 0] with the base path.
    Returns (u, z) at the endpoint.
    """
    if t_len < 0.0:
        raise ValueError("t_len must be nonnegative")
    u0, z0 = x0
    tau, t_end = (-t_len, 0.0) if pullback else (0.0, t_len)
    final = evolve_from(u0, z0, tau, t_end, path, model, spec)
    return final.u, reconstruct_z(final, path, model)
