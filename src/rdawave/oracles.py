"""Independent reference solutions for the linear regime.

A single discrete-Laplacian eigenmode reduces the model's linear part (f = 0,
g = 0, h along the mode) to a 2x2 ODE x' = Bx + c sin t for the modal
coefficients, driven by the frozen path omega(t) = sin t (c = 0 unforced).
One closed form, `exact_forced_modal`, is its exact solution, with no
integrator and no BLAS call.  The stepper marches such a linear run in sine
coordinates, mode by mode, but the closed form still shares no code with
it: the mode and its eigenvalue come from `eigenmode`, not from the
stepper's transform.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .grid import Grid, inner
from .model import Model, PowerNonlinearity, make_model
from .paths import FrozenPath
from .solver import SolveSpec, check_stability, evolve

__all__ = [
    "check_oracle_grid",
    "check_oracle_steps",
    "eigenmode",
    "modal_matrix",
    "modal_exponential",
    "exact_unforced_modal",
    "exact_forced_modal",
    "modal_error",
    "observed_orders",
    "run_convergence_study",
]

# the study: one eigenmode, started from X0 at t = 0, marched to T_END at
# each step length of DTS by each scheme, forced along the mode by h_c sin t
MODE_INDEX = 3
DTS = (1e-2, 5e-3, 2.5e-3)
T_END = 10.0
X0 = (1.0, 0.0)
_RUNS = (("semi_implicit", 0.0), ("crank_nicolson_linear", 1.0))  # (scheme, h_c)

# below this |disc * t^2| the exponential's cosh/sinh (cos/sin) terms are
# summed as series; the first term dropped is below 1e-20 relative
_SERIES_Z = 1e-6


def check_oracle_grid(grid: Grid) -> None:
    """The eigenmode oracle runs on a 1-D grid."""
    if grid.dim != 1:
        raise ValueError(f"eigenmode oracle is 1-D, got grid.dim = {grid.dim}")


def check_oracle_steps(grid: Grid, lam_prime: float) -> None:
    """The study's longest step passes the explicit part's stability bound
    on the grid, at the factor the study runs with (`SolveSpec`'s default)."""
    try:
        check_stability(grid, max(DTS), lam_prime, SolveSpec.stability_factor)
    except ValueError as exc:
        raise ValueError(f"n={grid.n} is too fine for the eigenmode oracle's steps: {exc}") \
            from None


def eigenmode(grid: Grid, k: int):
    """k-th discrete sine eigenvector of the 1-D Dirichlet Laplacian and its
    eigenvalue -(4/h^2) sin^2(k pi / (2(n+1)))."""
    check_oracle_grid(grid)
    n, h = grid.n, grid.spacing
    j = np.arange(1, n + 1)
    vec = np.sin(k * math.pi * j / (n + 1))
    mu = -(4.0 / h ** 2) * math.sin(k * math.pi / (2.0 * (n + 1))) ** 2
    return vec, mu


def modal_matrix(model: Model, mu: float) -> np.ndarray:
    """Linear generator of (u_c, v_c)' for one Laplacian eigenvalue mu (<= 0)."""
    return np.array([
        [-model.delta, 1.0],
        [mu - model.lam_prime, -(model.alpha - model.delta)],
    ])


def modal_exponential(B: np.ndarray, ts) -> np.ndarray:
    """e^{Bt} of a real 2x2 matrix B for each t in `ts`, shape (len(ts), 2, 2).

    Cayley-Hamilton form: with s = tr B / 2 and disc = s^2 - det B,
    e^{Bt} = e^{st} (C(t) I + S(t) (B - sI)), where C = cosh(rt) and
    S = sinh(rt)/r if disc = r^2 > 0, C = cos(rt) and S = sin(rt)/r if
    disc = -r^2 < 0.  Both are entire in z = disc t^2 (C = sum z^k/(2k)!,
    S = t sum z^k/(2k+1)!), so near disc t^2 = 0 their series is used.
    """
    ts = np.asarray(ts, dtype=float)
    s = 0.5 * (B[0, 0] + B[1, 1])
    disc = s * s - (B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0])
    z = disc * ts * ts
    C = 1.0 + z / 2.0 + z * z / 24.0
    S = ts * (1.0 + z / 6.0 + z * z / 120.0)
    far = np.abs(z) >= _SERIES_Z
    if far.any():
        r = math.sqrt(abs(disc))
        rt = r * ts[far]
        C[far] = np.cosh(rt) if disc > 0.0 else np.cos(rt)
        S[far] = (np.sinh(rt) if disc > 0.0 else np.sin(rt)) / r
    decay = np.exp(s * ts)[:, None, None]
    return decay * (C[:, None, None] * np.eye(2) + S[:, None, None] * (B - s * np.eye(2)))


def exact_unforced_modal(model: Model, mu: float, x0, ts: Sequence[float]) -> np.ndarray:
    """Modal coefficients at each t in `ts` of x' = Bx with x(ts[0]) = x0."""
    return exact_forced_modal(model, mu, 0.0, x0, ts)


def exact_forced_modal(model: Model, mu: float, h_c: float, x0,
                       ts: Sequence[float]) -> np.ndarray:
    """Modal coefficients at each t in `ts` of x' = Bx + c sin t, with
    c = h_c (1, delta - alpha) and x(ts[0]) = x0.

    x_p(t) = Bq sin t + q cos t with q = -(B^2 + I)^{-1} c solves the forced
    system (B^2 + I is invertible: B's eigenvalues have negative real part),
    so x(t) = e^{B(t - t0)} (x0 - x_p(t0)) + x_p(t)."""
    B = modal_matrix(model, mu)
    (b00, b01), (b10, b11) = B
    c0, c1 = h_c, (model.delta - model.alpha) * h_c
    # M = B^2 + I written out, and q = -M^{-1} c by the 2x2 adjugate
    m00, m01 = b00 * b00 + b01 * b10 + 1.0, b01 * (b00 + b11)
    m10, m11 = b10 * (b00 + b11), b11 * b11 + b01 * b10 + 1.0
    det = m00 * m11 - m01 * m10
    q = np.array([m01 * c1 - m11 * c0, m10 * c0 - m00 * c1]) / det
    Bq = np.array([b00 * q[0] + b01 * q[1], b10 * q[0] + b11 * q[1]])

    ts = np.asarray(ts, dtype=float)
    particular = np.multiply.outer(np.sin(ts), Bq) + np.multiply.outer(np.cos(ts), q)
    x = np.asarray(x0, dtype=float) - particular[0]
    E = modal_exponential(B, ts - ts[0])
    return E[:, :, 0] * x[0] + E[:, :, 1] * x[1] + particular


class _ModalObserver:
    def __init__(self, grid: Grid, mode: np.ndarray):
        self.grid = grid
        self.mode = mode
        self.norm_sq = inner(grid, mode, mode)
        self.ts = []
        self.coeffs = []

    def __call__(self, t: float, u: np.ndarray, v: np.ndarray) -> None:
        self.ts.append(t)
        self.coeffs.append([inner(self.grid, u, self.mode) / self.norm_sq,
                            inner(self.grid, v, self.mode) / self.norm_sq])


def modal_error(model: Model, mode: np.ndarray, mu: float, dt: float, scheme: str,
                h_c: float) -> float:
    """Max modal-coefficient error of one solver run of the model's linear
    part from X0 to T_END against the exact solution, forced along the mode
    by h_c * sin t."""
    # the linear part: f = 0, g = 0 and h along the mode; of the model only
    # the grid, alpha, lambda and delta reach the march
    grid = model.grid
    linear = make_model(grid, model.alpha, model.lam, PowerNonlinearity(a=0.0),
                        np.zeros(grid.shape), h_c * mode, model.delta)
    spec = SolveSpec(dt=dt, scheme=scheme, record_every=max(1, round(0.5 / dt)))
    obs = _ModalObserver(grid, mode)
    # omega(0) = 0, so z0 = v0; with h_c = 0 every path value is multiplied by h = 0
    evolve(X0[0] * mode, X0[1] * mode, 0.0, T_END, FrozenPath(math.sin), linear, spec,
           observer=obs)
    exact = exact_forced_modal(linear, mu, h_c, X0, obs.ts)
    return float(np.max(np.linalg.norm(np.array(obs.coeffs) - exact, axis=1)))


def observed_orders(errors: Sequence[float]) -> list:
    """log2 error ratios for a dt-halving sequence."""
    return [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]


def run_convergence_study(model: Model) -> dict:
    """Eigenmode study of the model's linear part against the closed form:
    semi-implicit unforced, Crank-Nicolson forced by the frozen path
    omega(t) = sin t.  Returns the oracle report: `dts`, and per scheme its
    `errors` and `observed_orders`."""
    mode, mu = eigenmode(model.grid, MODE_INDEX)
    report = {"dts": list(DTS)}
    for scheme, h_c in _RUNS:
        errors = [modal_error(model, mode, mu, dt, scheme, h_c) for dt in DTS]
        report[scheme] = {"errors": errors, "observed_orders": observed_orders(errors)}
    return report
