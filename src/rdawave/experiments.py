"""Numerical experiments: pullback absorption, tail decay, pullback
convergence, and the cocycle identity.

Probability-almost-everywhere statements are surrogated by a finite seed
panel; every experiment is a pure function of (config, paths), one sample
path per seed, and returns its report dict: per-seed results with pass/fail
flags and measured margins.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .energy import BlockObserver
from .grid import Grid, norm_h1, norm_l2
from .model import Model
from .paths import PathLike, SamplePath, shift, tempered_integral
from .solver import Column, SolveSpec, Stepper, whole_steps

__all__ = [
    "TemperedFamilySpec",
    "random_state",
    "gaussian_state",
    "INITIAL_STATES",
    "product_norm_sq",
    "estimate_R",
    "absorption_experiment",
    "tail_experiment",
    "pullback_convergence_experiment",
    "cocycle_experiment",
    "check_positive",
    "check_tau_list",
    "check_k_list",
    "check_splits",
    "LEAST",
]

COCYCLE_TOL = 1e-10
# the fewest values each experiment's lists need, by subcommand
LEAST = {"absorb": {"tau_list": 1}, "tails": {"tau_list": 1, "k_list": 1},
         "pullback": {"tau_list": 3}, "cocycle": {"splits": 1}}


@dataclass(frozen=True)
class TemperedFamilySpec:
    """Initial-data family: radius(tau) = radius_0 * exp(growth_beta * sqrt(|tau|)).

    Subexponential in |tau|, so e^{-beta |tau|} * radius(tau) -> 0 for every
    beta > 0 (temperedness).
    """

    radius_0: float = 1.0
    growth_beta: float = 0.0

    def __post_init__(self):
        check_positive("radius_0", self.radius_0)
        if self.growth_beta < 0.0:
            raise ValueError("growth_beta must be nonnegative")

    def radius(self, tau: float) -> float:
        """The radius at tau; a ValueError if it is past the largest float."""
        try:
            radius = self.radius_0 * math.exp(self.growth_beta * math.sqrt(abs(tau)))
        except OverflowError:
            radius = math.inf
        if radius == math.inf:
            raise ValueError(f"growth_beta={self.growth_beta:g} puts the family radius at "
                             f"tau={tau:g} past the largest float")
        return radius


def _report(experiment, seeds, results, flags, margins) -> dict:
    """An experiment's `<name>_report.json` payload; `reporting.write_json`
    adds the config hash.  It passes when every flag does."""
    return {"schema_version": 1, "experiment": experiment, "seeds": list(seeds),
            "results": results, "flags": flags, "margins": margins,
            "passed": all(flags.values())}


def _check_count(name: str, values: Sequence, least: int) -> None:
    if len(values) < least:
        raise ValueError(f"{name} needs {least} or more values, got {len(values)}")


def check_positive(name: str, x: float) -> None:
    """A scalar that must be positive: the tail threshold epsilon, a radius."""
    if x <= 0.0:
        raise ValueError(f"{name} must be positive")


def check_tau_list(tau_list: Sequence[float], dt: float, least: int = 0) -> None:
    """Start times of pullback runs: at least `least` of them, each negative
    and one or more whole steps of dt before 0, so every run marches whole steps."""
    _check_count("tau_list", tau_list, least)
    if any(t >= 0.0 for t in tau_list):
        raise ValueError("tau_list entries must be negative")
    for i, t in enumerate(tau_list):
        if not whole_steps(-t, dt):
            raise ValueError(f"tau_list entry {t:g} is not aligned with dt={dt:g}")
        if round(-t / dt) < 1:
            raise ValueError(f"tau_list entry {t:g} is under one step of dt={dt:g} before 0")
        if t in tau_list[:i]:
            raise ValueError(f"tau_list entry {t:g} is repeated: the start times must be distinct")


def check_k_list(k_list: Sequence[float], grid: Grid, least: int = 0) -> None:
    """Tail radii: at least `least` distinct radii, each positive and with
    its weight rho(|x|^2/k^2) supported inside the box."""
    _check_count("k_list", k_list, least)
    if any(k <= 0.0 for k in k_list):
        raise ValueError("k_list entries must be positive")
    repeated = [k for k, count in Counter(k_list).items() if count > 1]
    if repeated:
        raise ValueError(f"k_list entry {repeated[0]:g} is repeated: the radii must be distinct")
    if k_list and math.sqrt(2.0) * max(k_list) >= grid.half_width:
        raise ValueError(
            "k_list must satisfy sqrt(2)*max(k) < L: a box-truncated weight would fake decay")


def check_splits(t_splits: Sequence[Tuple[float, float]], dt: float, least: int = 0) -> None:
    """Cocycle splits (s, t): at least `least` of them, each length positive
    and one or more whole steps of dt, so every leg marches whole steps."""
    _check_count("splits", t_splits, least)
    for i, (s, t) in enumerate(t_splits):
        if s <= 0.0 or t <= 0.0:
            raise ValueError(f"splits entry {s:g}:{t:g} must have two positive lengths")
        if not (whole_steps(s, dt) and whole_steps(t, dt)):
            raise ValueError(f"splits entry {s:g}:{t:g} is not aligned with dt={dt:g}")
        if round(min(s, t) / dt) < 1:
            raise ValueError(f"splits entry {s:g}:{t:g} has a length under one step of dt={dt:g}")
        if (s, t) in t_splits[:i]:
            raise ValueError(f"splits entry {s:g}:{t:g} is repeated: each split runs once")


def product_norm_sq(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """Squared H1 x L2 product norm."""
    return norm_h1(grid, u) ** 2 + norm_l2(grid, v) ** 2


def random_state(grid: Grid, seed: int, radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic pseudo-random (u0, z0) on the sphere of the given radius
    in the H1 x L2 product norm."""
    rng = np.random.Generator(np.random.Philox(key=(int(seed) << 16) ^ 0x5EED))
    u = rng.standard_normal(grid.shape)
    z = rng.standard_normal(grid.shape)
    scale = radius / math.sqrt(product_norm_sq(grid, u, z))
    return u * scale, z * scale


def gaussian_state(grid: Grid, radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """Smooth centered (u0, z0) of unit width scaled to the given product-norm radius."""
    r_sq = grid.radius_sq()
    u = np.exp(-r_sq / 2.0)
    z = 0.5 * u
    scale = radius / math.sqrt(product_norm_sq(grid, u, z))
    return u * scale, z * scale


# `experiment.initial` -> simulate's start state (u0, z0) from (grid, seed,
# radius).  Each entry looks its state function up by name when it runs, so
# a wrapper later set on that module name is the one called.
INITIAL_STATES = {
    "zero": lambda grid, seed, radius: (np.zeros(grid.shape), np.zeros(grid.shape)),
    "random": lambda grid, seed, radius: random_state(grid, seed, radius),
    "gaussian": lambda grid, seed, radius: gaussian_state(grid, radius),
}


def estimate_R(path: PathLike, model: Model, t_cut: float) -> float:
    """R(omega) estimate 1 + r(omega), r the exponential path integral.  The
    analytic constant in front is non-explicit: compare ratios, not levels."""
    return 1.0 + tempered_integral(path, model.sigma, model.nonlin.gamma, t_cut)


def _exp_weighted_integral(obs: BlockObserver) -> float:
    """Trapezoidal integral of e^{sigma t} (||u||_H1^2 + ||v||^2) over `obs`'s records."""
    ts = np.asarray(obs.ts)
    norm_sq = [h1 ** 2 + nv ** 2 for h1, nv in zip(obs.norm_u_h1, obs.norm_v_l2)]
    return float(np.trapezoid(np.exp(obs.model.sigma * ts) * np.asarray(norm_sq), ts))


def _march_panel(name: str, paths: Sequence[SamplePath], tau_list: Sequence[float],
                 initial: Callable, finish: Callable, model: Model, spec: SolveSpec,
                 observer: Callable = lambda: None) -> Tuple[list, list]:
    """Check `name`'s tau_list, order it latest first as taus, and march one
    column per (path, tau) from `initial(path, i, tau)` = (u0, z0) at taus[i]
    to t = 0 through one `Stepper`, each start state built as the march
    reaches its tau.  `finish(path, i, obs, u, z)` reduces a column's observer
    and final (u, z) as its group ends, a path's earliest tau first.  Returns
    taus and, per path in tau order, the reductions."""
    check_tau_list(tau_list, spec.dt, LEAST[name]["tau_list"])
    taus = sorted(tau_list, reverse=True)
    cols = [Column(functools.partial(initial, path, i, tau), tau, 0.0, path, obs,
                   functools.partial(finish, path, i, obs))
            for path in paths for i, tau in enumerate(taus) for obs in [observer()]]
    finals = Stepper(model, spec).march(cols)
    return taus, [finals[lo:lo + len(taus)] for lo in range(0, len(cols), len(taus))]


def absorption_experiment(family: TemperedFamilySpec, tau_list: Sequence[float],
                          paths: Sequence[SamplePath], model: Model,
                          spec: SolveSpec) -> dict:
    """Pullback absorption: solve from each tau to t = 0 with initial data on
    the family sphere; check the t=0 norms enter and remain below a fitted
    horizontal bound as tau -> -infinity."""
    taus, panel = _march_panel(
        "absorb", paths, tau_list,
        lambda path, i, tau: random_state(model.grid, path.seed * 1009 + i, family.radius(tau)),
        # the observer's last record is its t = 0 state
        lambda path, i, obs, u, z: (obs.norm_u_h1[-1] ** 2 + obs.norm_v_l2[-1] ** 2,
                                    product_norm_sq(model.grid, u, z),
                                    _exp_weighted_integral(obs)),
        model, spec, lambda: BlockObserver(model))
    results = {}
    flags = {}
    margins = {}
    for path, reduced in zip(paths, panel):
        finals_uv, finals_uz, integrals = zip(*reduced)

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
        r_est = estimate_R(path, model, t_cut=min(taus))
        flags[f"seed{path.seed}_absorbed"] = entry <= 2
        flags[f"seed{path.seed}_integral_bounded"] = bool(
            max(integrals) <= 10.0 * max(r_est, min(integrals)))
        results[str(path.seed)] = {
            "tau": list(map(float, taus)),
            "final_norm_uv_sq": list(map(float, finals_uv)),
            "final_norm_uz_sq": list(map(float, finals_uz)),
            "exp_weighted_integrals": list(map(float, integrals)),
            "fitted_bound": bound,
            "entry_index": entry,
            "estimate_R": r_est,
            "bound_over_estimate_R": bound / r_est,
        }
        margins[f"seed{path.seed}_bound_ratio"] = bound / r_est
    return _report("absorption", [p.seed for p in paths], results, flags, margins)


def tail_experiment(epsilon: float, k_list: Sequence[float],
                    tau_list: Sequence[float], paths: Sequence[SamplePath],
                    model: Model, spec: SolveSpec, initial_radius: float = 1.0) -> dict:
    """Tail decay: report the smallest k with e^{sigma t} * tail(k) <= epsilon
    at every recorded (tau, t), or the measured infimum if none attains it."""
    check_positive("epsilon", epsilon)
    check_k_list(k_list, model.grid, LEAST["tails"]["k_list"])
    k_list = sorted(k_list)

    u0, z0 = gaussian_state(model.grid, initial_radius)
    sig = model.sigma

    def reduce(path, i, obs, u, z):
        """Per k, the column's largest e^{sig t} tail(k); and whether some
        record's tail fails to fall as k grows."""
        tails = np.asarray(obs.tails)  # one row per k
        weights = np.exp(sig * np.asarray(obs.ts))
        return np.max(weights * tails, axis=1), bool(np.any(np.diff(tails, axis=0) >= 0.0))

    _, panel = _march_panel("tails", paths, tau_list, lambda *_: (u0, z0), reduce, model,
                            spec, lambda: BlockObserver(model, k_list))
    results = {}
    flags = {}
    worst_by_k = np.zeros(len(k_list))  # max over seeds/tau/t of e^{sig t} tail(k)
    for path, reduced in zip(paths, panel):
        seed_worst = np.zeros(len(k_list))
        monotone = True
        for worst, rising in reduced:
            seed_worst = np.maximum(seed_worst, worst)
            monotone = monotone and not rising
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
    return _report("tail_decay", [p.seed for p in paths],
                   {"per_seed": results,
                    "global_attained_k": attained_global[0] if attained_global else None,
                    "global_infimum": float(np.min(worst_by_k))},
                   flags, {"epsilon": epsilon, "best_weighted_tail": float(np.min(worst_by_k))})


def pullback_convergence_experiment(family: TemperedFamilySpec,
                                    tau_list: Sequence[float],
                                    paths: Sequence[SamplePath], model: Model,
                                    spec: SolveSpec) -> dict:
    """Proxy for pullback asymptotic compactness: consecutive t=0 states from
    ever-earlier starts should be numerically Cauchy.  Non-monotone decrement
    sequences are flagged (reported), not failed."""
    held = {}  # per seed, the t = 0 state of the column that finished last

    def decrement(path, i, obs, u, z):
        """Column i's Cauchy decrement against column i + 1, which finished last."""
        earlier = held.get(path.seed)
        held[path.seed] = u.copy(), z  # u is a view of its group's state
        if earlier is not None:
            return math.sqrt(product_norm_sq(model.grid, u - earlier[0], z - earlier[1]))

    taus, panel = _march_panel(
        "pullback", paths, tau_list,
        lambda path, i, tau: random_state(model.grid, path.seed * 2027 + i, family.radius(tau)),
        decrement, model, spec)
    results = {}
    flags = {}
    for path, reduced in zip(paths, panel):
        dists = reduced[:-1]  # the earliest tau has none
        decreasing_trend = dists[-1] < dists[0]
        monotone = all(d2 <= d1 for d1, d2 in zip(dists, dists[1:]))
        results[str(path.seed)] = {
            "tau": list(map(float, taus)),
            "cauchy_decrements": list(map(float, dists)),
            "monotone": monotone,
        }
        flags[f"seed{path.seed}_decreasing"] = decreasing_trend
        # monotonicity is informational only
    return _report("pullback_convergence", [p.seed for p in paths], results, flags, {})


def cocycle_experiment(t_splits: Sequence[Tuple[float, float]],
                       paths: Sequence[SamplePath], model: Model, spec: SolveSpec,
                       initial_radius: float = 1.0) -> dict:
    """Measure the defect of Phi(t+s, w, x) = Phi(t, theta_s w, Phi(s, w, x))
    per (path, split), each path covering 0 to the longest split; misaligned
    splits are a contract violation, not a tolerance excuse."""
    check_splits(t_splits, spec.dt, LEAST["cocycle"]["splits"])
    run = Stepper(model, spec)

    # every distinct direct length s+t and first leg s, for all paths at once;
    # the march returns each Phi as (u, z)
    lengths = sorted({x for s, t in t_splits for x in (s, s + t)})
    x0 = {p.seed: random_state(model.grid, p.seed * 31337, initial_radius) for p in paths}
    legs = dict(zip([(p.seed, x) for p in paths for x in lengths],
                    run.march([Column(lambda start=x0[p.seed]: start, 0.0, x, p)
                               for p in paths for x in lengths])))

    def relative_defect(direct, u, z):
        du, dz = direct[0] - u, direct[1] - z
        ref = math.sqrt(product_norm_sq(model.grid, *direct))
        return math.sqrt(product_norm_sq(model.grid, du, dz)) / max(ref, 1e-300)

    # each composed Phi is reduced to its defect as its group ends
    defects = iter(run.march([Column(lambda leg=legs[p.seed, s]: leg, 0.0, t, shift(p, s), None,
                                     functools.partial(relative_defect, legs[p.seed, s + t]))
                              for p in paths for s, t in t_splits]))
    results = {}
    flags = {}
    worst = 0.0
    for path in paths:
        per_split = {}
        for s, t in t_splits:
            defect = next(defects)
            per_split[f"{s}+{t}"] = defect
            flags[f"seed{path.seed}_split_{s}+{t}"] = defect <= COCYCLE_TOL
            worst = max(worst, defect)
        results[str(path.seed)] = per_split
    return _report("cocycle", [p.seed for p in paths], results, flags,
                   {"max_relative_defect": worst, "tolerance": COCYCLE_TOL})
