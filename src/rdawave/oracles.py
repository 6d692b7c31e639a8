"""Independent reference solutions for the linear regime.

A single discrete-Laplacian eigenmode reduces the linear system (f = 0) to a
2x2 ODE x' = Bx + c sin t for the modal coefficients, driven by the frozen
path omega(t) = sin t.  Both references are its exact solution in closed
form, with no integrator and no BLAS call, and share no code with the time
stepper.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .grid import Grid, inner
from .model import Model
from .paths import FrozenPath
from .solver import SolveSpec, evolve

__all__ = [
    "eigenmode",
    "modal_matrix",
    "modal_exponential",
    "exact_unforced_modal",
    "exact_forced_modal",
    "modal_error",
    "observed_orders",
    "ConvergenceStudy",
    "run_convergence_study",
]

# below this |disc * t^2| the exponential's cosh/sinh (cos/sin) terms are
# summed as series; the first term dropped is below 1e-20 relative
_SERIES_Z = 1e-6


def eigenmode(grid: Grid, k: int):
    """k-th discrete sine eigenvector of the 1-D Dirichlet Laplacian and its
    eigenvalue -(4/h^2) sin^2(k pi / (2(n+1)))."""
    if grid.dim != 1:
        raise ValueError("eigenmode oracle is 1-D")
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


def _propagate(B: np.ndarray, x0, ts) -> np.ndarray:
    """e^{Bt} x0 for each t in `ts`, shape (len(ts), 2)."""
    E = modal_exponential(B, ts)
    return E[:, :, 0] * x0[0] + E[:, :, 1] * x0[1]


def exact_unforced_modal(model: Model, mu: float, x0, ts: Sequence[float]) -> np.ndarray:
    """Modal coefficients at each t in `ts` of x' = Bx with x(ts[0]) = x0."""
    ts = np.asarray(ts, dtype=float)
    return _propagate(modal_matrix(model, mu), np.asarray(x0, dtype=float), ts - ts[0])


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
    return _propagate(B, np.asarray(x0, dtype=float) - particular[0], ts - ts[0]) + particular


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
                t_end: float, x0=(1.0, 0.0), h_c: float = 0.0) -> float:
    """Max modal-coefficient error of one solver run against the exact
    solution, forced along the mode by h_c * sin t (unforced if h_c = 0)."""
    # the modal reduction needs f = 0, g = 0, and h along the mode
    if model.nonlin.a != 0.0 or model.nonlin.b != 0.0:
        raise ValueError("modal oracle requires the linear regime (a = b = 0)")
    model = replace(model, g=np.zeros(model.grid.shape), h=h_c * mode)

    path = FrozenPath(math.sin) if h_c != 0.0 else FrozenPath(lambda t: 0.0)
    spec = SolveSpec(dt=dt, scheme=scheme, record_every=max(1, round(0.5 / dt)))
    obs = _ModalObserver(model.grid, mode)
    evolve(x0[0] * mode, x0[1] * mode, 0.0, t_end, path, model, spec, observers=[obs])

    ts = np.array(obs.ts)
    numeric = np.array(obs.coeffs)
    if h_c == 0.0:
        exact = exact_unforced_modal(model, mu, x0, ts)
    else:
        exact = exact_forced_modal(model, mu, h_c, x0, ts)
    return float(np.max(np.linalg.norm(numeric - exact, axis=1)))


def observed_orders(errors: Sequence[float]) -> list:
    """log2 error ratios for a dt-halving sequence."""
    return [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]


@dataclass
class ConvergenceStudy:
    dts: list
    semi_implicit_errors: list
    semi_implicit_orders: list
    crank_nicolson_errors: list
    crank_nicolson_orders: list

    def to_jsonable(self) -> dict:
        return {
            "dts": self.dts,
            "semi_implicit": {"errors": self.semi_implicit_errors,
                              "observed_orders": self.semi_implicit_orders},
            "crank_nicolson_linear": {"errors": self.crank_nicolson_errors,
                                      "observed_orders": self.crank_nicolson_orders},
        }


def run_convergence_study(model: Model, mode_index: int = 3,
                          dts: Sequence[float] = (1e-2, 5e-3, 2.5e-3),
                          t_end: float = 10.0) -> ConvergenceStudy:
    """Eigenmode study against the closed-form references: semi-implicit
    unforced; Crank-Nicolson forced by the frozen path omega(t) = sin t."""
    mode, mu = eigenmode(model.grid, mode_index)
    dts = list(dts)
    semi = [modal_error(model, mode, mu, dt, "semi_implicit", t_end) for dt in dts]
    cn = [modal_error(model, mode, mu, dt, "crank_nicolson_linear", t_end, h_c=1.0)
          for dt in dts]
    return ConvergenceStudy(
        dts=dts,
        semi_implicit_errors=semi,
        semi_implicit_orders=observed_orders(semi),
        crank_nicolson_errors=cn,
        crank_nicolson_orders=observed_orders(cn),
    )
