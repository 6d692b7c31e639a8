"""Outside-in layer spans for rdawave.

`Tracer.install()` replaces the program's public functions and methods with
wrappers that record a span per call, in every namespace that bound them,
and stands a shim in for the scipy module `rdawave.solver` calls so the
linear solve is timed where the program hands it to scipy.
`Tracer.uninstall()` puts every original back.

A span is (layer, start, end, parent span, invocation).  Spans are kept in
flat arrays in memory and written out once, by `save`.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

# layer -> "module:qualname" targets.  A target the program no longer has is
# listed in `Tracer.missing`, and the run is then not correct: its layer would
# otherwise read 0, which looks like a gain.
LAYERS: Dict[str, tuple] = {
    "cli.main": ("cli:main",),
    "config.parse_config": ("config:parse_config",),
    "paths.generate_path": ("paths:generate_path",),
    "paths.evaluate": ("paths:SamplePath.evaluate", "paths:ShiftedView.evaluate",
                       "paths:FrozenPath.evaluate"),
    "model.f": ("model:PowerNonlinearity.f",),
    "model.F": ("model:PowerNonlinearity.F",),
    "grid.laplacian_matrix": ("grid:laplacian_matrix",),
    "grid.norms": ("grid:norm_l2", "grid:norm_h1", "grid:grad_sq", "grid:inner",
                   "grid:grad_inner", "experiments:product_norm_sq"),
    "grid.tail_weighted_norms": ("grid:tail_weighted_norms",),
    "solver.evolve": ("solver:evolve",),
    "solver.step": ("solver:step",),
    "energy.observer": ("energy:EnergyObserver.__call__",),
    "energy.psi": ("energy:psi",),
    "energy.energy_E": ("energy:energy_E",),
    "energy.tail_energy": ("energy:tail_energy",),
    "energy.energy_identity_residual": ("energy:energy_identity_residual",),
    "experiments.initial_state": ("experiments:random_state", "experiments:gaussian_state"),
    "experiments.experiment": ("experiments:absorption_experiment",
                               "experiments:tail_experiment",
                               "experiments:pullback_convergence_experiment",
                               "experiments:cocycle_experiment"),
    "oracles.modal_error": ("oracles:modal_error",),
    "oracles.reference": ("oracles:exact_unforced_modal", "oracles:exact_forced_modal"),
    "reporting.write": ("reporting:write_csv", "reporting:write_json"),
}
# spans recorded by the scipy shim in rdawave.solver
SHIM_LAYERS = ("solver.factorize", "solver.linsolve")


class Tracer:
    def __init__(self):
        self.names: List[str] = list(LAYERS) + list(SHIM_LAYERS)
        self._id = {name: i for i, name in enumerate(self.names)}
        self.layer = array("i")
        self.parent = array("i")
        self.invocation = array("i")
        self.outer = array("b")      # 1 if no enclosing span has the same layer
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.counts: Counter = Counter()
        self.invocation_id = 0
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._child: List[float] = []
        self._depth = [0] * len(self.names)
        self._undo: List[tuple] = []

    # -- recording -----------------------------------------------------
    def _open(self, lid: int) -> int:
        i = len(self.layer)
        self.layer.append(lid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.invocation.append(self.invocation_id)
        self.outer.append(self._depth[lid] == 0)
        self._depth[lid] += 1
        self._stack.append(i)
        self._child.append(0.0)
        self.end.append(0.0)
        self.self_time.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        t = time.perf_counter()
        self.end[i] = t
        self._stack.pop()
        dur = t - self.start[i]
        self.self_time[i] = dur - self._child.pop()
        if self._child:
            self._child[-1] += dur
        self._depth[self.layer[i]] -= 1

    def span(self, layer: str, fn, after=None):
        """Wrap `fn` so each call records a span of `layer`; `after(result,
        args, kwargs)` runs once the span has closed, to record counts."""
        lid = self._id[layer]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    # -- installing ----------------------------------------------------
    def install(self) -> None:
        modules = _program_modules()
        hooks = {"paths.generate_path": self._count_nodes,
                 "reporting.write": self._count_output}
        for layer, targets in LAYERS.items():
            for target in targets:
                if not self._install_target(modules, layer, target, hooks.get(layer)):
                    self.missing.append(target)
        solver = modules.get("rdawave.solver")
        if solver is not None and hasattr(solver, "spla"):
            self._set(solver, "spla", _ScipyShim(solver.spla, self))
        else:
            self.missing.append("solver:spla")
        self.missing = sorted(set(self.missing))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _install_target(self, modules, layer, target, after) -> bool:
        mod_name, qualname = target.split(":")
        module = modules.get(f"rdawave.{mod_name}")
        if module is None:
            return False
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or meth not in vars(cls):
                return False
            self._set(cls, meth, self.span(layer, vars(cls)[meth], after))
            return True
        original = getattr(module, qualname, None)
        if original is None:
            return False
        wrapper = self.span(layer, original, after)
        # every namespace that bound the name, e.g. `from .grid import norm_l2`
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
        return True

    def _count_nodes(self, path, args, kwargs) -> None:
        self.counts["paths.generate_path.nodes"] += len(path.values)

    def _count_output(self, result, args, kwargs) -> None:
        self.counts["reporting.files"] += 1
        self.counts["reporting.bytes"] += os.path.getsize(args[0])

    # -- summarising ---------------------------------------------------
    def mark(self) -> int:
        """Span index to pass to `summary` as the start of a window."""
        return len(self.layer)

    def summary(self, lo: int, hi: int, counts: Counter) -> "LayerTotals":
        lid = np.frombuffer(self.layer, dtype=np.int32)[lo:hi]
        outer = np.frombuffer(self.outer, dtype=np.int8)[lo:hi].astype(bool)
        dur = (np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi])
        own = np.frombuffer(self.self_time)[lo:hi]
        k = len(self.names)
        return LayerTotals(
            names=list(self.names),
            calls=np.bincount(lid[outer], minlength=k),
            inclusive=np.bincount(lid[outer], weights=dur[outer], minlength=k),
            self_time=np.bincount(lid, weights=own, minlength=k),
            counts=Counter(counts))

    def check_nesting(self) -> List[str]:
        """Problems with the recorded spans: a child outside its parent, or a
        negative self time.  Empty when the spans nest."""
        problems = []
        for i in range(len(self.layer)):
            p = self.parent[i]
            if p >= 0 and not (self.start[p] <= self.start[i] <= self.end[i] <= self.end[p]):
                problems.append(f"span {i} ({self.names[self.layer[i]]}) escapes its parent {p}")
            if p >= 0 and self.invocation[p] != self.invocation[i]:
                problems.append(f"span {i} and its parent {p} are in different invocations")
            if self.self_time[i] < 0.0:
                problems.append(f"span {i} ({self.names[self.layer[i]]}) has negative self time")
        return problems

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), layer=np.frombuffer(self.layer, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 invocation=np.frombuffer(self.invocation, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 self_time=np.frombuffer(self.self_time))


@dataclass
class LayerTotals:
    names: List[str]
    calls: np.ndarray        # outermost calls per layer
    inclusive: np.ndarray    # time inside outermost spans per layer
    self_time: np.ndarray    # span time minus child-span time, per layer
    counts: Counter

    def get(self, layer: str):
        i = self.names.index(layer)
        return int(self.calls[i]), float(self.inclusive[i]), float(self.self_time[i])


class _ScipyShim:
    """Stands in for `scipy.sparse.linalg` inside `rdawave.solver`: times
    `splu` as a factorization and each `.solve` and `cg` as a linear solve,
    and counts CG iterations through cg's own callback."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer
        self._solve = tracer.span("solver.linsolve", lambda fn, *a, **k: fn(*a, **k))
        self._factor = tracer.span("solver.factorize", real.splu)

    def __getattr__(self, name):
        return getattr(self._real, name)

    def splu(self, *args, **kwargs):
        self._tracer.counts["solver.factorizations"] += 1
        return _TracedLU(self._factor(*args, **kwargs), self._solve)

    def cg(self, *args, callback=None, **kwargs):
        counts = self._tracer.counts
        counts["solver.cg.solves"] += 1

        def count(xk):
            counts["solver.cg.iterations"] += 1
            if callback is not None:
                callback(xk)

        return self._solve(self._real.cg, *args, callback=count, **kwargs)


class _TracedLU:
    def __init__(self, lu, solve_span):
        self._lu = lu
        self._solve = solve_span

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, *args, **kwargs):
        return self._solve(self._lu.solve, *args, **kwargs)


def _program_modules() -> dict:
    for name in ("cli", "config", "energy", "experiments", "grid", "model",
                 "oracles", "paths", "reporting", "solver"):
        try:
            importlib.import_module(f"rdawave.{name}")
        except ImportError:
            pass
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "rdawave" or name.startswith("rdawave."))}


def _cached(value):
    """The functools cache behind `value` (through tracing wrappers and
    staticmethod/classmethod), or None."""
    value = getattr(value, "__func__", value)
    while value is not None and not hasattr(value, "cache_clear"):
        value = getattr(value, "__wrapped__", None)
    return value


def _program_namespaces():
    """(name, namespace dict) for each program module, each class it defines
    and each module-level instance of a program class."""
    for mod_name, mod in _program_modules().items():
        yield mod_name, vars(mod)
        for attr, value in list(vars(mod).items()):
            owner = value if isinstance(value, type) else type(value)
            if not owner.__module__.startswith("rdawave") or attr.startswith("__"):
                continue
            if isinstance(value, type):
                if value.__module__ == mod_name:
                    yield f"{mod_name}.{attr}", vars(value)
            elif hasattr(value, "__dict__"):
                yield f"{mod_name}.{attr}", vars(value)


def clear_program_caches() -> None:
    """Empty the program's in-process caches: every functools cache bound in
    a program namespace (module, class or module-level object) and every
    dict whose name says it is a cache."""
    for _, namespace in _program_namespaces():
        for attr, value in list(namespace.items()):
            if isinstance(value, dict):
                if "cache" in attr.lower() and not attr.startswith("__"):
                    value.clear()
                continue
            cached = _cached(value)
            if cached is not None:
                cached.cache_clear()


def program_state_sizes() -> Dict[str, int]:
    """Size of every dict, list and set and every functools cache bound in a
    program namespace.  Once `clear_program_caches` has run, anything larger
    than at the start of the run is state that outlives an invocation: a
    cache that would make a later invocation faster than a fresh `rda-wave`
    process."""
    sizes = {}
    for ns_name, namespace in _program_namespaces():
        for attr, value in list(namespace.items()):
            if isinstance(value, (dict, list, set)):
                sizes[f"{ns_name}.{attr}"] = len(value)
            elif not isinstance(value, type):
                cached = _cached(value)
                if cached is not None and hasattr(cached, "cache_info"):
                    sizes[f"{ns_name}.{attr}"] = cached.cache_info().currsize
    return sizes
