"""Energy functional E, production functional Psi, tails, identity audit.

Along exact solutions dE/dt + 4*sigma*E = Psi; discretely the residual of that
identity converges to zero at the scheme's order, which is what the audit
measures.  Observers reduce their recorded states in blocks of records, one
`RecordKernel` pass per block, with the same bits as one record at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as np

from .grid import _axis_diffs, _grad_sum, _norm_of_sq, _record_sums, _tail_sums
from .model import Model
from .paths import PathLike

__all__ = [
    "EnergyRecord",
    "RecordKernel",
    "energy_E",
    "psi",
    "PSI_TERM_NAMES",
    "energy_identity_residual",
    "ResidualSeries",
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


@dataclass
class EnergyRecord:
    t: float
    E: float
    Psi: float
    terms: Dict[str, float]
    norm_u_h1: float
    norm_v_l2: float
    norm_z_l2: float  # z = v + h*omega(t), as `solver.reconstruct_z` builds it
    tail: Optional[Dict[float, float]] = None


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

    def tails(self, k: float) -> List[float]:
        """u^2 + |grad u|^2 + v^2 weighted by rho(|x|^2/k^2): the H1 x L2 mass
        beyond radius ~k, the sum of `grid.tail_weighted_norms` in its order."""
        return [tw.u_l2_sq + tw.grad_u_sq + tw.v_l2_sq
                for tw in _tail_sums(self.model.grid, k, self.u_sq, self.du_sq, self.v_sq)]


def energy_E(u: np.ndarray, v: np.ndarray, model: Model) -> float:
    """E = ||v||^2 + lam'||u||^2 + ||grad u||^2 + 2 int F(u)."""
    return RecordKernel(u[None], v[None], model).energy()[0]


def psi(u: np.ndarray, v: np.ndarray, t: float, path: PathLike, model: Model):
    """The ten-term production functional at time t; returns (total, breakdown)."""
    terms = RecordKernel(u[None], v[None], model).psi_terms([path.evaluate(t)])[0]
    return sum(terms.values()), terms


@dataclass
class ResidualSeries:
    times: np.ndarray          # record times
    residual_diff: np.ndarray  # len n-1, midpoint form on each interval
    residual_int: np.ndarray   # len n, integral form vs the first record (entry 0 is 0)

    @property
    def max_diff(self) -> float:
        return float(np.max(np.abs(self.residual_diff)))

    @property
    def max_int(self) -> float:
        return float(np.max(np.abs(self.residual_int)))


def energy_identity_residual(records: Sequence[EnergyRecord], sigma: float) -> ResidualSeries:
    """Differential and integral residuals of dE/dt + 4 sigma E = Psi.

    Differential form uses midpoint averaging on each recording interval;
    integral form compares E(t) with the exponential-weighted Psi integral
    (trapezoidal) from the first record.  Records must be equally spaced.
    """
    if len(records) < 2:
        raise ValueError("need at least 2 energy records")
    ts = np.array([r.t for r in records])
    Es = np.array([r.E for r in records])
    Ps = np.array([r.Psi for r in records])
    dts = np.diff(ts)
    dt = dts[0]
    if np.max(np.abs(dts - dt)) > 1e-9 * max(abs(dt), 1e-30):
        raise ValueError("energy records are not equally spaced in t")

    r_diff = (Es[1:] - Es[:-1]) / dt + 4.0 * sigma * 0.5 * (Es[1:] + Es[:-1]) \
        - 0.5 * (Ps[1:] + Ps[:-1])

    r_int = np.zeros(len(records))
    weighted = np.exp(4.0 * sigma * ts) * Ps
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (weighted[1:] + weighted[:-1]) * dt)))
    for i in range(1, len(records)):
        integral = math.exp(-4.0 * sigma * ts[i]) * cum[i]
        r_int[i] = Es[i] - math.exp(-4.0 * sigma * (ts[i] - ts[0])) * Es[0] - integral
    return ResidualSeries(times=ts, residual_diff=r_diff, residual_int=r_int)


def tail_energy(u: np.ndarray, v: np.ndarray, k: float, model: Model) -> float:
    """`RecordKernel.tails` of one state.  No code in the package calls it:
    it stays while the benchmark's tracer (`benchmarks/rdabench/tracing.py`)
    wraps it by name, and goes when that tracer stops (ROADMAP item 2)."""
    return RecordKernel(u[None], v[None], model).tails(k)[0]


class BlockObserver:
    """Base of the library's observers: `_record` copies each state into a
    block of `block` records, and the call that fills it, or a reader, hands
    `_reduce(ts, kern)` one `RecordKernel` over the block.  At block 1 the
    march's view is reduced at once, uncopied."""

    def __init__(self, model: Model):
        self.model = model
        self.block = max(1, min(BLOCK_RECORDS, BLOCK_NODES // model.h.size))
        self._ts: List[float] = []
        self._u = self._v = None  # (block, *grid.shape), allocated on first record

    def _record(self, t: float, u: np.ndarray, v: np.ndarray) -> None:
        if self.block == 1:
            return self._reduce([t], RecordKernel(u[None], v[None], self.model))
        if self._u is None:
            self._u, self._v = (np.empty((self.block,) + u.shape) for _ in "uv")
        self._u[len(self._ts)], self._v[len(self._ts)] = u, v
        self._ts.append(t)
        if len(self._ts) == self.block:
            self._flush()

    def _flush(self) -> None:
        if self._ts:
            ts, self._ts = self._ts, []
            self._reduce(ts, RecordKernel(self._u[:len(ts)], self._v[:len(ts)], self.model))


def _flushed(name: str) -> property:
    """Attribute `name`, read after any partial block is reduced."""
    return property(lambda self: self._flush() or getattr(self, name))


class EnergyObserver(BlockObserver):
    """Trajectory observer collecting EnergyRecord entries (optionally with tails)."""

    def __init__(self, path: PathLike, model: Model, k_list: Sequence[float] = ()):
        super().__init__(model)
        self.path = path
        self.k_list = tuple(k_list)
        self._records: List[EnergyRecord] = []

    def __call__(self, t: float, u: np.ndarray, v: np.ndarray) -> None:
        self._record(t, u, v)

    records = _flushed("_records")

    def _reduce(self, ts: List[float], kern: RecordKernel) -> None:
        ws = self.path.evaluate(np.asarray(ts, dtype=float)).tolist()
        w_col = np.reshape(ws, (-1,) + (1,) * self.model.grid.dim)
        norm_z = _norm_of_sq((kern.v + self.model.h * w_col) ** 2, kern.vol)  # z = v + h*omega
        tails = [kern.tails(k) for k in self.k_list]
        for i, (t, E, terms) in enumerate(zip(ts, kern.energy(), kern.psi_terms(ws))):
            self._records.append(EnergyRecord(
                t=t, E=E, Psi=sum(terms.values()), terms=terms,
                norm_u_h1=kern.norm_h1[i], norm_v_l2=kern.norm_v[i], norm_z_l2=norm_z[i],
                tail={k: tail[i] for k, tail in zip(self.k_list, tails)} or None))
