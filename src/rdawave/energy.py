"""Energy functional E, production functional Psi, tail energy, identity audit.

Along exact solutions dE/dt + 4*sigma*E = Psi; discretely the residual of that
identity converges to zero at the scheme's order, which is what the audit
measures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as np

from .grid import (TailNorms, _axis_diffs, _grad_sum, _node_weights, _norm_of_sq,
                   _tail_sums, inner, norm_l2)
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
    "EnergyObserver",
]

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


def _h_diffs(model: Model) -> List[np.ndarray]:
    return [_axis_diffs(model.grid, model.h, ax) for ax in range(model.grid.dim)]


class RecordKernel:
    """What E, Psi, the tails and the norms of one recorded state share, each
    computed once: u's axis differences, the squares and the L2 and gradient
    sums at construction, F(u) on first use.  Each expression keeps the order
    of its textbook form (`norm_l2`, `grad_sq`, `inner`, ...) and each sum runs
    over arrays of the same shape, so every result is bit-identical to
    computing it alone."""

    def __init__(self, u: np.ndarray, v: np.ndarray, model: Model):
        self.u, self.v, self.model = u, v, model
        self.vol = vol = model.grid.cell_volume
        self.u_sq, self.v_sq = u ** 2, v ** 2
        self.du = [_axis_diffs(model.grid, u, ax) for ax in range(model.grid.dim)]
        self.du_sq = [d ** 2 for d in self.du]
        self.norm_u, self.norm_v = _norm_of_sq(self.u_sq, vol), _norm_of_sq(self.v_sq, vol)
        self.grad_sq = _grad_sum(self.du_sq, vol)
        self.norm_h1 = float(np.sqrt(self.norm_u ** 2 + self.grad_sq))

    @cached_property
    def F(self) -> np.ndarray:
        return self.model.nonlin.F(self.u)

    @cached_property
    def int_F(self) -> float:
        return float(self.F.sum() * self.vol)

    def energy(self) -> float:
        """E = ||v||^2 + lam'||u||^2 + ||grad u||^2 + 2 int F(u)."""
        return (self.norm_v ** 2 + self.model.lam_prime * self.norm_u ** 2
                + self.grad_sq + 2.0 * self.int_F)

    def psi_terms(self, w: float, h_diffs: Sequence[np.ndarray]) -> Dict[str, float]:
        """The ten Psi terms at noise value w; `h_diffs` are h's axis differences."""
        m, u, v, vol = self.model, self.u, self.v, self.vol
        lp, sig, dl, al = m.lam_prime, m.sigma, m.delta, m.alpha
        fu = m.nonlin.f(u)
        return {
            "damp_v": -2.0 * (al - dl - 2.0 * sig) * self.norm_v ** 2,
            "damp_u": -2.0 * (dl - 2.0 * sig) * lp * self.norm_u ** 2,
            "damp_grad": -2.0 * (dl - 2.0 * sig) * self.grad_sq,
            "potential": 8.0 * sig * self.int_F,
            "dissipation": -2.0 * dl * float((fu * u).sum() * vol),
            "noise_u": 2.0 * lp * inner(m.grid, u, m.h) * w,
            "noise_grad": 2.0 * _grad_sum(map(np.multiply, self.du, h_diffs), vol) * w,
            "noise_f": 2.0 * w * float((fu * m.h).sum() * vol),
            "forcing": 2.0 * inner(m.grid, m.g, v),
            "noise_v": 2.0 * (dl - al) * inner(m.grid, v, m.h) * w,
        }

    def tail_norms(self, k: float) -> TailNorms:
        return _tail_sums(self.model.grid, k, self.u_sq, self.du_sq, self.v_sq)

    def tail_energy(self, k: float) -> float:
        """E weighted by rho(|x|^2/k^2): the energy beyond radius ~k."""
        tw = self.tail_norms(k)
        w = _node_weights(self.model.grid, float(k))
        f_tail = float((w * self.F).sum() * self.vol)
        return (tw.v_l2_sq + self.model.lam_prime * tw.u_l2_sq + tw.grad_u_sq
                + 2.0 * f_tail)


def energy_E(u: np.ndarray, v: np.ndarray, model: Model) -> float:
    """E = ||v||^2 + lam'||u||^2 + ||grad u||^2 + 2 int F(u)."""
    return RecordKernel(u, v, model).energy()


def psi(u: np.ndarray, v: np.ndarray, t: float, path: PathLike, model: Model):
    """The ten-term production functional at time t; returns (total, breakdown)."""
    terms = RecordKernel(u, v, model).psi_terms(path.evaluate(t), _h_diffs(model))
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
    """Energy-weighted tail: E's integrand (lam' u^2 and 2F included) weighted
    by rho(|x|^2/k^2), the mass beyond radius ~k.  This is the `tail_k*`
    column of `simulate`; the `tails` report uses u^2 + |grad u|^2 + v^2."""
    return RecordKernel(u, v, model).tail_energy(k)


class EnergyObserver:
    """Trajectory observer collecting EnergyRecord entries (optionally with tails)."""

    def __init__(self, path: PathLike, model: Model, k_list: Sequence[float] = ()):
        self.path = path
        self.model = model
        self.k_list = tuple(k_list)
        self.records: List[EnergyRecord] = []
        self._h_diffs = _h_diffs(model)  # h is constant along a run

    def __call__(self, t: float, u: np.ndarray, v: np.ndarray) -> None:
        kern = RecordKernel(u, v, self.model)
        w = self.path.evaluate(t)
        terms = kern.psi_terms(w, self._h_diffs)
        self.records.append(EnergyRecord(
            t=t, E=kern.energy(), Psi=sum(terms.values()), terms=terms,
            norm_u_h1=kern.norm_h1, norm_v_l2=kern.norm_v,
            norm_z_l2=norm_l2(self.model.grid, v + self.model.h * w),
            tail={k: kern.tail_energy(k) for k in self.k_list} or None))
