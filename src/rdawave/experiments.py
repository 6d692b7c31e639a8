"""Numerical experiments: pullback absorption, tail decay, temperedness,
pullback convergence, and the cocycle identity.

Probability-almost-everywhere statements are surrogated by a finite seed
panel; every experiment is a pure function of (config, seeds) and reports
per-seed results with pass/fail flags and measured margins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .energy import RecordKernel
from .grid import Grid, norm_h1, norm_l2
from .model import Model
from .paths import PathLike, SamplePath, generate_path, shift, tempered_integral
from .solver import SolveSpec, Stepper, column_from, reconstruct_z, whole_steps

__all__ = [
    "TemperedFamilySpec",
    "ExperimentReport",
    "random_state",
    "gaussian_state",
    "product_norm_sq",
    "estimate_R",
    "temperedness_probe",
    "absorption_experiment",
    "tail_experiment",
    "pullback_convergence_experiment",
    "cocycle_experiment",
    "check_tau_list",
    "check_tail_args",
]

COCYCLE_TOL = 1e-10


@dataclass(frozen=True)
class TemperedFamilySpec:
    """Initial-data family: radius(tau) = radius_0 * exp(growth_beta * sqrt(|tau|)).

    Subexponential in |tau|, so e^{-beta |tau|} * radius(tau) -> 0 for every
    beta > 0 (temperedness).
    """

    kind: str = "fixed_ball"
    radius_0: float = 1.0
    growth_beta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("fixed_ball", "subexponential_growth"):
            raise ValueError("kind must be fixed_ball or subexponential_growth")
        if self.radius_0 <= 0.0:
            raise ValueError("radius_0 must be positive")
        if self.growth_beta < 0.0:
            raise ValueError("growth_beta must be nonnegative")
        if self.kind == "fixed_ball" and self.growth_beta != 0.0:
            raise ValueError("fixed_ball family has growth_beta = 0")

    def radius(self, tau: float) -> float:
        return self.radius_0 * math.exp(self.growth_beta * math.sqrt(abs(tau)))


@dataclass
class ExperimentReport:
    experiment: str
    config_hash: str
    seeds: List[int]
    results: dict
    flags: Dict[str, bool] = field(default_factory=dict)
    margins: Dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.flags.values())

    def to_jsonable(self) -> dict:
        return {
            "schema_version": 1,
            "experiment": self.experiment,
            "config_hash": self.config_hash,
            "seeds": list(self.seeds),
            "results": self.results,
            "flags": dict(self.flags),
            "margins": dict(self.margins),
            "passed": self.passed,
        }

    def to_text(self) -> str:
        lines = [f"experiment: {self.experiment}",
                 f"config_hash: {self.config_hash}",
                 f"seeds: {', '.join(str(s) for s in self.seeds)}",
                 "flags:"]
        width = max((len(k) for k in self.flags), default=0)
        for k, v in self.flags.items():
            lines.append(f"  {k:<{width}}  {'PASS' if v else 'FAIL'}")
        if self.margins:
            lines.append("margins:")
            width = max(len(k) for k in self.margins)
            for k, v in self.margins.items():
                lines.append(f"  {k:<{width}}  {v:.6g}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _check_count(name: str, values: Sequence, least: int) -> None:
    if len(values) < least:
        raise ValueError(f"{name} needs {least} or more values, got {len(values)}")


def check_tau_list(tau_list: Sequence[float], least: int = 0) -> None:
    """Start times of pullback runs: negative, and at least `least` of them."""
    _check_count("tau_list", tau_list, least)
    if any(t >= 0.0 for t in tau_list):
        raise ValueError("tau_list entries must be negative")


def check_tail_args(epsilon: float, k_list: Sequence[float], grid: Grid, least: int = 0) -> None:
    """Tail threshold and radii: at least `least` radii, each with its weight
    rho(|x|^2/k^2) supported inside the box."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    _check_count("k_list", k_list, least)
    if k_list and math.sqrt(2.0) * max(k_list) >= grid.half_width:
        raise ValueError(
            "k_list must satisfy sqrt(2)*max(k) < L: a box-truncated weight would fake decay")


def product_norm_sq(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """Squared H1 x L2 product norm."""
    return norm_h1(grid, u) ** 2 + norm_l2(grid, v) ** 2


def random_state(grid: Grid, seed: int, radius: float,
                 concentrate_edge: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic pseudo-random (u0, z0) on the sphere of the given radius
    in the H1 x L2 product norm.  `concentrate_edge` biases the mass toward
    the domain boundary to stress tail estimates."""
    rng = np.random.Generator(np.random.Philox(key=(int(seed) << 16) ^ 0x5EED))
    u = rng.standard_normal(grid.shape)
    z = rng.standard_normal(grid.shape)
    if concentrate_edge:
        r = np.sqrt(grid.radius_sq())
        envelope = np.exp(-(grid.half_width - r) ** 2)
        u *= envelope
        z *= envelope
    scale = radius / math.sqrt(product_norm_sq(grid, u, z))
    return u * scale, z * scale


def gaussian_state(grid: Grid, radius: float,
                   width: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
    """Smooth centered (u0, z0) scaled to the given product-norm radius."""
    r_sq = grid.radius_sq()
    u = np.exp(-r_sq / (2.0 * width ** 2))
    z = 0.5 * np.exp(-r_sq / (2.0 * width ** 2))
    scale = radius / math.sqrt(product_norm_sq(grid, u, z))
    return u * scale, z * scale


def estimate_R(path: PathLike, model: Model, t_cut: float, c: float = 1.0) -> float:
    """R(omega) estimate c*(1 + r(omega)) with r the exponential path integral.

    The calibration constant c is configurable (default 1) because the
    analytic constant is non-explicit; comparisons use ratios, not levels.
    """
    ti = tempered_integral(path, model.sigma, model.nonlin.gamma, t_cut)
    return c * (1.0 + ti.value)


def temperedness_probe(paths: Sequence[SamplePath], model: Model,
                       betas: Sequence[float] = (0.01, 0.1, 1.0),
                       t_grid: Sequence[float] = None,
                       t_cut: float = -100.0,
                       config_hash: str = "") -> ExperimentReport:
    """Fit the slope of log(e^{-beta t} R(theta_{-t} omega)) over t; the
    estimate is tempered iff every fitted slope is negative."""
    if t_grid is None:
        t_grid = np.arange(0.0, 100.0 + 1e-9, 0.5)
    t_grid = np.asarray(t_grid, dtype=float)
    results = {}
    flags = {}
    worst = math.inf
    for path in paths:
        R_vals = np.array([estimate_R(shift(path, -t), model, t_cut) for t in t_grid])
        per_beta = {}
        for beta in betas:
            logs = -beta * t_grid + np.log(R_vals)
            slope = float(np.polyfit(t_grid, logs, 1)[0])
            per_beta[str(beta)] = slope
            flags[f"seed{path.seed}_beta{beta}_negative_slope"] = slope < 0.0
            worst = min(worst, -slope)
        results[str(path.seed)] = per_beta
    return ExperimentReport(
        experiment="temperedness_probe", config_hash=config_hash,
        seeds=[p.seed for p in paths], results=results, flags=flags,
        margins={"min_negative_slope_magnitude": worst})


class _NormIntegralObserver:
    """Accumulates records of e^{sigma t} (||u||_H1^2 + ||v||^2) for the
    integral bound, plus the plain squared norms."""

    def __init__(self, grid: Grid, sigma: float):
        self.grid = grid
        self.sigma = sigma
        self.ts: List[float] = []
        self.norm_sq: List[float] = []

    def __call__(self, t: float, u: np.ndarray, v: np.ndarray) -> None:
        self.ts.append(t)
        self.norm_sq.append(product_norm_sq(self.grid, u, v))

    def exp_weighted_integral(self) -> float:
        ts = np.asarray(self.ts)
        vals = np.exp(self.sigma * ts) * np.asarray(self.norm_sq)
        return float(np.trapezoid(vals, ts))


def absorption_experiment(family: TemperedFamilySpec, tau_list: Sequence[float],
                          paths: Sequence[SamplePath], model: Model,
                          spec: SolveSpec, config_hash: str = "",
                          estimate_c: float = 1.0) -> ExperimentReport:
    """Pullback absorption: solve from each tau to t = 0 with initial data on
    the family sphere; check the t=0 norms enter and remain below a fitted
    horizontal bound as tau -> -infinity."""
    check_tau_list(tau_list, 1)
    tau_list = sorted(tau_list, reverse=True)
    cols = []
    for path in paths:
        for i, tau in enumerate(tau_list):
            u0, z0 = random_state(model.grid, path.seed * 1009 + i, family.radius(tau))
            cols.append(column_from(u0, z0, tau, 0.0, path, model,
                                    [_NormIntegralObserver(model.grid, model.sigma)]))
    finals = Stepper(model, spec).march(cols)
    n_tau = len(tau_list)
    results = {}
    flags = {}
    margins = {}
    for s, path in enumerate(paths):
        finals_uv = []
        finals_uz = []
        integrals = []
        per_seed = slice(s * n_tau, (s + 1) * n_tau)
        for col, (u, v) in zip(cols[per_seed], finals[per_seed]):
            z_end = reconstruct_z(v, 0.0, path, model)
            finals_uv.append(product_norm_sq(model.grid, u, v))
            finals_uz.append(norm_h1(model.grid, u) ** 2 + norm_l2(model.grid, z_end) ** 2)
            integrals.append(col.observers[0].exp_weighted_integral())

        vals = np.asarray(finals_uz)
        # horizontal bound fitted on the settled range (beyond the first two
        # tau entries, or the second half for short lists)
        settled = min(2, len(vals) // 2)
        bound = 1.05 * float(np.max(vals[settled:]))
        below = vals <= bound
        entry = len(vals)
        for i in range(len(vals)):
            if all(below[i:]):
                entry = i
                break
        r_est = estimate_R(path, model, t_cut=min(tau_list), c=estimate_c)
        flags[f"seed{path.seed}_absorbed"] = entry <= 2
        flags[f"seed{path.seed}_integral_bounded"] = bool(
            max(integrals) <= 10.0 * max(r_est, min(integrals)))
        results[str(path.seed)] = {
            "tau": list(map(float, tau_list)),
            "final_norm_uv_sq": list(map(float, finals_uv)),
            "final_norm_uz_sq": list(map(float, finals_uz)),
            "exp_weighted_integrals": list(map(float, integrals)),
            "fitted_bound": bound,
            "entry_index": entry,
            "estimate_R": r_est,
            "bound_over_estimate_R": bound / r_est,
        }
        margins[f"seed{path.seed}_bound_ratio"] = bound / r_est
    return ExperimentReport(
        experiment="absorption", config_hash=config_hash,
        seeds=[p.seed for p in paths], results=results, flags=flags,
        margins=margins)


class _TailObserver:
    """Records, for each k, the tail of u^2 + |grad u|^2 + v^2 (the H1 x L2
    product-norm integrand) weighted by rho(|x|^2/k^2).  Unlike
    `energy.tail_energy`, the `tail_k*` columns of `simulate`, it has no
    lam' and no 2F."""

    def __init__(self, k_list: Sequence[float], model: Model):
        self.k_list = tuple(k_list)
        self.model = model
        self.ts: List[float] = []
        self.tails: List[List[float]] = []  # per record, one entry per k

    def __call__(self, t: float, u: np.ndarray, v: np.ndarray) -> None:
        kern = RecordKernel(u, v, self.model)  # shared by every radius
        row = []
        for k in self.k_list:
            tw = kern.tail_norms(k)
            row.append(tw.u_l2_sq + tw.grad_u_sq + tw.v_l2_sq)
        self.ts.append(t)
        self.tails.append(row)


def tail_experiment(epsilon: float, k_list: Sequence[float],
                    tau_list: Sequence[float], paths: Sequence[SamplePath],
                    model: Model, spec: SolveSpec, config_hash: str = "",
                    initial_radius: float = 1.0) -> ExperimentReport:
    """Tail decay: report the smallest k with e^{sigma t} * tail(k) <= epsilon
    at every recorded (tau, t), or the measured infimum if none attains it."""
    check_tail_args(epsilon, k_list, model.grid, 1)
    check_tau_list(tau_list, 1)
    k_list = sorted(k_list)
    tau_list = sorted(tau_list, reverse=True)

    u0, z0 = gaussian_state(model.grid, initial_radius)
    cols = [column_from(u0, z0, tau, 0.0, path, model, [_TailObserver(k_list, model)])
            for path in paths for tau in tau_list]
    Stepper(model, spec).march(cols)
    n_tau = len(tau_list)
    sig = model.sigma
    results = {}
    flags = {}
    worst_by_k = np.zeros(len(k_list))  # max over seeds/tau/t of e^{sig t} tail(k)
    for s, path in enumerate(paths):
        seed_worst = np.zeros(len(k_list))
        monotone = True
        for col in cols[s * n_tau:(s + 1) * n_tau]:
            obs = col.observers[0]
            tails = np.asarray(obs.tails)
            weights = np.exp(sig * np.asarray(obs.ts))[:, None]
            seed_worst = np.maximum(seed_worst, np.max(weights * tails, axis=0))
            if np.any(np.diff(tails, axis=1) >= 0.0):
                monotone = False
        attained = [k for k, w in zip(k_list, seed_worst) if w <= epsilon]
        results[str(path.seed)] = {
            "k_list": list(map(float, k_list)),
            "worst_weighted_tail_per_k": list(map(float, seed_worst)),
            "attained_k": attained[0] if attained else None,
            "strictly_decreasing_in_k": monotone,
        }
        flags[f"seed{path.seed}_attained"] = bool(attained)
        flags[f"seed{path.seed}_monotone_in_k"] = monotone
        worst_by_k = np.maximum(worst_by_k, seed_worst)

    attained_global = [k for k, w in zip(k_list, worst_by_k) if w <= epsilon]
    return ExperimentReport(
        experiment="tail_decay", config_hash=config_hash,
        seeds=[p.seed for p in paths],
        results={"per_seed": results,
                 "global_attained_k": attained_global[0] if attained_global else None,
                 "global_infimum": float(np.min(worst_by_k))},
        flags=flags,
        margins={"epsilon": epsilon,
                 "best_weighted_tail": float(np.min(worst_by_k))})


def pullback_convergence_experiment(family: TemperedFamilySpec,
                                    tau_list: Sequence[float],
                                    paths: Sequence[SamplePath], model: Model,
                                    spec: SolveSpec,
                                    config_hash: str = "") -> ExperimentReport:
    """Proxy for pullback asymptotic compactness: consecutive t=0 states from
    ever-earlier starts should be numerically Cauchy.  Non-monotone decrement
    sequences are flagged (reported), not failed."""
    check_tau_list(tau_list, 3)
    tau_list = sorted(tau_list, reverse=True)
    cols = []
    for path in paths:
        for i, tau in enumerate(tau_list):
            u0, z0 = random_state(model.grid, path.seed * 2027 + i, family.radius(tau))
            cols.append(column_from(u0, z0, tau, 0.0, path, model))
    finals = Stepper(model, spec).march(cols)
    n_tau = len(tau_list)
    results = {}
    flags = {}
    for s, path in enumerate(paths):
        states = finals[s * n_tau:(s + 1) * n_tau]
        dists = []
        for (ua, va), (ub, vb) in zip(states, states[1:]):
            dists.append(math.sqrt(product_norm_sq(model.grid, ua - ub, va - vb)))
        decreasing_trend = dists[-1] < dists[0]
        monotone = all(d2 <= d1 for d1, d2 in zip(dists, dists[1:]))
        results[str(path.seed)] = {
            "tau": list(map(float, tau_list)),
            "cauchy_decrements": list(map(float, dists)),
            "monotone": monotone,
        }
        flags[f"seed{path.seed}_decreasing"] = decreasing_trend
        # monotonicity is informational only
    return ExperimentReport(
        experiment="pullback_convergence", config_hash=config_hash,
        seeds=[p.seed for p in paths], results=results, flags=flags)


def cocycle_experiment(t_splits: Sequence[Tuple[float, float]],
                       seeds: Sequence[int], model: Model, spec: SolveSpec,
                       config_hash: str = "",
                       initial_radius: float = 1.0) -> ExperimentReport:
    """Measure the defect of Phi(t+s, w, x) = Phi(t, theta_s w, Phi(s, w, x))
    per (seed, split); misaligned splits are a contract violation, not a
    tolerance excuse."""
    _check_count("splits", t_splits, 1)
    for s, t in t_splits:
        if not (whole_steps(s, spec.dt) and whole_steps(t, spec.dt)):
            raise ValueError(f"split ({s}, {t}) is not aligned with dt={spec.dt}")
    horizon = max(s + t for s, t in t_splits)
    run = Stepper(model, spec)
    paths = {seed: generate_path(seed, t_min=0.0, t_max=horizon, dt_path=spec.dt)
             for seed in seeds}

    def march(starts):
        """Phi(length, path, x) for each (x, length, path) of `starts`, as (u, z)."""
        finals = run.march([column_from(u, z, 0.0, length, path, model)
                            for (u, z), length, path in starts])
        return [(u, reconstruct_z(v, length, path, model))
                for (u, v), (_, length, path) in zip(finals, starts)]

    # every distinct direct length s+t and first leg s, for all seeds at once
    lengths = sorted({x for s, t in t_splits for x in (s, s + t)})
    keys = [(seed, x) for seed in seeds for x in lengths]
    x0 = {seed: random_state(model.grid, seed * 31337, initial_radius) for seed in seeds}
    legs = dict(zip(keys, march([(x0[seed], x, paths[seed]) for seed, x in keys])))
    composed_all = iter(march([(legs[seed, s], t, shift(paths[seed], s))
                               for seed in seeds for s, t in t_splits]))
    results = {}
    flags = {}
    worst = 0.0
    for seed in seeds:
        per_split = {}
        for s, t in t_splits:
            direct = legs[seed, s + t]
            composed = next(composed_all)
            du, dz = direct[0] - composed[0], direct[1] - composed[1]
            ref = math.sqrt(product_norm_sq(model.grid, *direct))
            defect = math.sqrt(product_norm_sq(model.grid, du, dz)) / max(ref, 1e-300)
            per_split[f"{s}+{t}"] = defect
            flags[f"seed{seed}_split_{s}+{t}"] = defect <= COCYCLE_TOL
            worst = max(worst, defect)
        results[str(seed)] = per_split
    return ExperimentReport(
        experiment="cocycle", config_hash=config_hash, seeds=list(seeds),
        results=results, flags=flags,
        margins={"max_relative_defect": worst, "tolerance": COCYCLE_TOL})
