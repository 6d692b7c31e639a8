"""Energy functional E, production functional Psi, tails, identity audit.

Along exact solutions dE/dt + 4*sigma*E = Psi; discretely the residual of that
identity converges to zero at the scheme's order, which is what the audit
measures.  Observers reduce their recorded states in blocks of records, one
`RecordKernel` pass per block, with the same bits as one record at a time.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .grid import _axis_diffs, _grad_sum, _norm_of_sq, _record_sums, _tail_sums
from .model import Model
from .paths import PathLike

__all__ = [
    "RecordKernel",
    "energy_E",
    "psi",
    "PSI_TERM_NAMES",
    "energy_identity_residual",
    "tail_energy",
    "BlockObserver",
    "EnergyObserver",
]

# Observer blocks: up to 12 records and 2^14 nodes (128 KiB) per block array.
# 1-D n=1024 with an observer on every step runs no faster at 16 records, and
# each absorb observer at n=512 holds 96 KiB, not 128 KiB.
BLOCK_RECORDS, BLOCK_NODES = 12, 2 ** 14

PSI_TERM_NAMES = (
    "damp_v",        # -2(alpha-delta-2sigma)||v||^2
    "damp_u",        # -2(delta-2sigma) lam' ||u||^2
    "damp_grad",     # -2(delta-2sigma)||grad u||^2
    "potential",     # +8 sigma int F
    "dissipation",   # -2 delta int f(u) u
    "noise_u",       # +2 lam' (u,h) w(t)
    "noise_grad",    # +2 (grad u, grad h) w(t)
    "noise_f",       # +2 w(t) int f(u) h
    "forcing",       # +2 (g,v)
    "noise_v",       # +2 (delta-alpha)(v,h) w(t)
)


class RecordKernel:
    """What E, Psi, the tails and the norms of a block of recorded states (one
    per index of the leading axis) share, each computed once: u's axis
    differences, the squares and the L2 and gradient sums at construction,
    the integral of F(u) on first use.  Each result is a list, one value per
    record; arrays are summed one record per row and each scalar expression
    keeps the order of its textbook form (`norm_l2`, `grad_sq`, `inner`, ...)
    on Python floats, so every value is bit-identical to computing it alone."""

    def __init__(self, u: np.ndarray, v: np.ndarray, model: Model):
        self.u, self.v, self.model = u, v, model
        self.vol = vol = model.grid.cell_volume
        self.u_sq, self.v_sq = u ** 2, v ** 2
        self.du = [_axis_diffs(model.grid, u, ax + 1) for ax in range(model.grid.dim)]
        self.du_sq = [d ** 2 for d in self.du]
        self.norm_u, self.norm_v = _norm_of_sq(self.u_sq, vol), _norm_of_sq(self.v_sq, vol)
        self.grad_sq = _grad_sum(self.du_sq, vol)
        self.norm_h1 = [math.sqrt(nu ** 2 + g) for nu, g in zip(self.norm_u, self.grad_sq)]

    @cached_property
    def int_F(self) -> List[float]:
        return self._integral(self.model.nonlin.F(self.u))

    def _integral(self, block: np.ndarray) -> List[float]:
        return (_record_sums(block) * self.vol).tolist()

    def energy(self) -> List[float]:
        """E = ||v||^2 + lam'||u||^2 + ||grad u||^2 + 2 int F(u)."""
        lp = self.model.lam_prime
        return [nv ** 2 + lp * nu ** 2 + g + 2.0 * f
                for nv, nu, g, f in zip(self.norm_v, self.norm_u, self.grad_sq, self.int_F)]

    def psi_terms(self, ws: Sequence[float]) -> List[Dict[str, float]]:
        """The ten Psi terms of each record at its noise value in `ws`."""
        m, u, v, vol = self.model, self.u, self.v, self.vol
        lp, sig, dl, al = m.lam_prime, m.sigma, m.delta, m.alpha
        fu = m.nonlin.f(u)
        h_diffs = (_axis_diffs(m.grid, m.h, ax) for ax in range(m.grid.dim))
        grad_uh = _grad_sum(map(np.multiply, self.du, h_diffs), vol)
        fu_u, u_h, fu_h, g_v, v_h = (self._integral(a * b) for a, b in  # one product at a time
                                     ((fu, u), (u, m.h), (fu, m.h), (m.g, v), (v, m.h)))
        return [{
            "damp_v": -2.0 * (al - dl - 2.0 * sig) * self.norm_v[i] ** 2,
            "damp_u": -2.0 * (dl - 2.0 * sig) * lp * self.norm_u[i] ** 2,
            "damp_grad": -2.0 * (dl - 2.0 * sig) * self.grad_sq[i],
            "potential": 8.0 * sig * self.int_F[i],
            "dissipation": -2.0 * dl * fu_u[i],
            "noise_u": 2.0 * lp * u_h[i] * w,
            "noise_grad": 2.0 * grad_uh[i] * w,
            "noise_f": 2.0 * w * fu_h[i],
            "forcing": 2.0 * g_v[i],
            "noise_v": 2.0 * (dl - al) * v_h[i] * w,
        } for i, w in enumerate(ws)]

    def tails(self, ks: Sequence[float]) -> List[List[float]]:
        """For each radius k of `ks`, one list over records of u^2 + |grad u|^2
        + v^2 weighted by rho(|x|^2/k^2): the H1 x L2 mass beyond radius ~k,
        the sum of `grid.tail_weighted_norms` in its order.  Every radius is
        reduced in one pass: the radius-stacked weights broadcast elementwise
        against the block, and each (radius, record) product is summed as one
        contiguous row."""
        return [[u + g + v for u, g, v in zip(*sums)]
                for sums in _tail_sums(self.model.grid, ks, self.u_sq, self.du_sq, self.v_sq)]


def energy_E(u: np.ndarray, v: np.ndarray, model: Model) -> float:
    """E = ||v||^2 + lam'||u||^2 + ||grad u||^2 + 2 int F(u)."""
    return RecordKernel(u[None], v[None], model).energy()[0]


def psi(u: np.ndarray, v: np.ndarray, t: float, path: PathLike, model: Model):
    """The ten-term production functional at time t; returns (total, breakdown)."""
    terms = RecordKernel(u[None], v[None], model).psi_terms([path.evaluate(t)])[0]
    return sum(terms.values()), terms


def energy_identity_residual(ts: Sequence[float], E: Sequence[float], Psi: Sequence[float],
                             sigma: float) -> Tuple[np.ndarray, np.ndarray]:
    """Differential and integral residuals of dE/dt + 4 sigma E = Psi at the
    record times `ts`, as (residual_diff, residual_int).

    The differential form (n-1 values) uses midpoint averaging on each
    recording interval; the integral form (n values, the first 0) compares
    E(t) with the exponential-weighted Psi integral (trapezoidal) from the
    first record.  Records must be equally spaced.  The integral is carried
    relative to each record, I_i = d*I_{i-1} + dt/2 * (d*Psi_{i-1} + Psi_i)
    with d = exp(-4 sigma (t_i - t_{i-1})), so no factor exp(+-4 sigma t)
    overflows however long or early the records run.
    """
    if len(ts) < 2:
        raise ValueError("need at least 2 energy records")
    ts, Es, Ps = (np.array(col, dtype=float) for col in (ts, E, Psi))
    dts = np.diff(ts)
    dt = dts[0]
    if np.max(np.abs(dts - dt)) > 1e-9 * max(abs(dt), 1e-30):
        raise ValueError("energy records are not equally spaced in t")

    r_diff = (Es[1:] - Es[:-1]) / dt + 4.0 * sigma * 0.5 * (Es[1:] + Es[:-1]) \
        - 0.5 * (Ps[1:] + Ps[:-1])

    integrals, integral = [0.0], 0.0
    for d, p0, p1 in zip(np.exp(-4.0 * sigma * dts).tolist(), Ps[:-1].tolist(), Ps[1:].tolist()):
        integral = d * integral + 0.5 * (d * p0 + p1) * dt
        integrals.append(integral)
    return r_diff, Es - np.exp(-4.0 * sigma * (ts - ts[0])) * Es[0] - integrals


def tail_energy(u: np.ndarray, v: np.ndarray, k: float, model: Model) -> float:
    """`RecordKernel.tails` of one state.  No code in the package calls it:
    it stays while the benchmark's tracer (`benchmarks/rdabench/tracing.py`)
    wraps it by name, and goes when that tracer stops (ROADMAP item 2)."""
    return RecordKernel(u[None], v[None], model).tails((k,))[0][0]


def _flushed(*names: str) -> Tuple[property, ...]:
    """Attributes `names`, each read after any partial block is reduced and
    the block let go (a later record allocates it again)."""
    return tuple(property(lambda self, name=name: self._flush(release=True) or getattr(self, name))
                 for name in names)


class BlockObserver:
    """The library's observer.  Per record it keeps the columns `ts`,
    `norm_u_h1` and `norm_v_l2` and, in `tails`, one list per k of `k_list`,
    from one `RecordKernel.tails(k_list)` per block.  Each call copies its state
    into a block of `block` records, and the call that fills it, or a read
    of a column, hands `_reduce(ts, kern)` one `RecordKernel` over the
    block; a read also lets the block go, so an observer that has been read
    holds only its columns.  At block 1 the march's view is reduced at
    once, uncopied."""

    def __init__(self, model: Model, k_list: Sequence[float] = ()):
        self.model, self.k_list = model, tuple(k_list)
        self.block = max(1, min(BLOCK_RECORDS, BLOCK_NODES // model.h.size))
        self._pending: List[float] = []
        self._u = self._v = None  # (block, *grid.shape), allocated on first record
        self._ts, self._norm_u_h1, self._norm_v_l2 = [], [], []
        self._tails: List[List[float]] = [[] for _ in self.k_list]

    ts, norm_u_h1, norm_v_l2, tails = _flushed("_ts", "_norm_u_h1", "_norm_v_l2", "_tails")

    def __call__(self, t: float, u: np.ndarray, v: np.ndarray) -> None:
        if self.block == 1:
            return self._reduce([t], RecordKernel(u[None], v[None], self.model))
        if self._u is None:
            self._u, self._v = (np.empty((self.block,) + u.shape) for _ in "uv")
        self._u[len(self._pending)], self._v[len(self._pending)] = u, v
        self._pending.append(t)
        if len(self._pending) == self.block:
            self._flush()

    def _flush(self, release: bool = False) -> None:
        if self._pending:
            ts, self._pending = self._pending, []
            self._reduce(ts, RecordKernel(self._u[:len(ts)], self._v[:len(ts)], self.model))
        if release:
            self._u = self._v = None

    def _reduce(self, ts: List[float], kern: RecordKernel) -> None:
        self._ts += ts
        self._norm_u_h1 += kern.norm_h1
        self._norm_v_l2 += kern.norm_v
        for col, tail in zip(self._tails, kern.tails(self.k_list)):
            col += tail


class EnergyObserver(BlockObserver):
    """`BlockObserver` that also keeps, per record, E, the ten Psi terms
    (`terms`, one dict per record) and their sum Psi at the path's noise
    value, and ||z|| with z = v + h*omega(t), as `solver.reconstruct_z`
    builds it."""

    def __init__(self, path: PathLike, model: Model, k_list: Sequence[float] = ()):
        super().__init__(model, k_list)
        self.path = path
        self._E, self._terms, self._Psi, self._norm_z_l2 = [], [], [], []

    def __call__(self, t: float, u: np.ndarray, v: np.ndarray) -> None:
        super().__call__(t, u, v)  # its own method: the benchmark's tracer wraps it by name

    E, terms, Psi, norm_z_l2 = _flushed("_E", "_terms", "_Psi", "_norm_z_l2")

    def _reduce(self, ts: List[float], kern: RecordKernel) -> None:
        super()._reduce(ts, kern)
        ws = self.path.evaluate(np.asarray(ts, dtype=float)).tolist()
        w_col = np.reshape(ws, (-1,) + (1,) * self.model.grid.dim)
        terms = kern.psi_terms(ws)
        self._E += kern.energy()
        self._terms += terms
        self._Psi += [sum(t.values()) for t in terms]
        self._norm_z_l2 += _norm_of_sq((kern.v + self.model.h * w_col) ** 2, kern.vol)
