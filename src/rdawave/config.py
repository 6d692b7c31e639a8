"""Flat `section.key = value` run configuration: parsing, validation, defaults.

Parsing collects *all* errors (with line numbers) before failing, and the
canonical form of a validated config has a stable hash that is embedded in
every output file.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List

from .experiments import TemperedFamilySpec, check_tail_args, check_tau_list
from .grid import Grid
from .model import (FieldProfile, Model, PowerNonlinearity, make_model, rate_split,
                    shifted_lambda)
from .paths import check_path_range
from .reporting import config_hash
from .solver import SolveSpec, check_path_alignment, check_stability

__all__ = ["RunConfig", "ConfigError", "parse_config", "DEFAULT_SEEDS"]

DEFAULT_SEEDS = tuple(range(8))


class ConfigError(ValueError):
    def __init__(self, errors: List[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def _real(text: str) -> float:
    """A finite float.  NaN and inf are parse errors: NaN passes every
    owner's `x <= 0` rule, and inf most of them."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError("not finite")
    return x


def _list_of(parse):
    """Parser of a comma-separated list of `parse` values."""
    return lambda text: [parse(x) for x in text.split(",") if x.strip()]


def _parse_splits(text: str) -> List[tuple]:
    pairs = (item.split(":") for item in text.split(",") if item.strip())
    return [(_real(s), _real(t)) for s, t in pairs]


# key -> (parser, default). Defaults of None are filled contextually.
_SCHEMA = {
    "model.alpha": (_real, 1.0),
    "model.lambda": (_real, 1.0),
    "model.delta": (_real, None),
    "model.gamma": (_real, 3.0),
    "model.a": (_real, 1.0),
    "model.b": (_real, 0.0),
    "model.g.profile": (str, "gaussian"),
    "model.g.amplitude": (_real, 1.0),
    "model.g.width": (_real, 1.0),
    "model.g.center": (_real, 0.0),
    "model.h.profile": (str, "gaussian"),
    "model.h.amplitude": (_real, 1.0),
    "model.h.width": (_real, 1.0),
    "model.h.center": (_real, 0.0),
    "grid.dim": (int, 1),
    "grid.L": (_real, 40.0),
    "grid.n": (int, 1024),
    "solver.dt": (_real, 0.01),
    "solver.scheme": (str, "semi_implicit"),
    "solver.record_every": (int, 10),
    "solver.stability_factor": (_real, 5.0),
    "path.seeds": (_list_of(int), list(DEFAULT_SEEDS)),
    "path.t_min": (_real, -128.0),
    "path.dt_path": (_real, None),  # defaults to solver.dt
    "experiment.tau_list": (_list_of(_real), [-2.0, -4.0, -8.0, -16.0, -32.0, -64.0]),
    "experiment.radius_0": (_real, 1.0),
    "experiment.growth_beta": (_real, 0.0),
    "experiment.epsilon": (_real, 1e-3),
    "experiment.k_list": (_list_of(_real), [5.0, 10.0, 15.0, 20.0]),
    "experiment.t_end": (_real, 10.0),
    "experiment.initial": (str, "zero"),
    "experiment.splits": (_parse_splits,
                          [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0),
                           (1.0, 3.0), (3.0, 1.0), (2.0, 3.0), (3.0, 2.0)]),
}

_REQUIRED = ("model.alpha", "model.lambda", "grid.n", "solver.dt")

# Every owner's error message starts with its parameter's name; these names
# differ from the key (within the owner's section) that sets the parameter.
_ALIASES = {"half_width": "L", "lam": "lambda", "kind": "profile",
            "admissibility": "delta"}


@dataclass
class RunConfig:
    values: Dict[str, object]

    @property
    def hash(self) -> str:
        """Hash of the canonical form of every value, so a value set after
        parsing (such as a seed-panel override) is covered too."""
        canonical = "\n".join(f"{k}={self.values[k]!r}" for k in sorted(self.values))
        return config_hash(canonical)

    def __getitem__(self, key: str):
        return self.values[key]

    def build_grid(self) -> Grid:
        return Grid(dim=self.values["grid.dim"],
                    half_width=self.values["grid.L"],
                    n=self.values["grid.n"])

    def build_nonlinearity(self) -> PowerNonlinearity:
        return PowerNonlinearity(a=self.values["model.a"],
                                 gamma=self.values["model.gamma"],
                                 b=self.values["model.b"])

    def build_profile(self, name: str) -> FieldProfile:
        """The radial profile of the forcing g or the noise shape h."""
        return FieldProfile(*(self.values[f"model.{name}.{key}"]
                              for key in ("profile", "amplitude", "width", "center")))

    def build_model(self) -> Model:
        return make_model(self.build_grid(), alpha=self.values["model.alpha"],
                          lam=self.values["model.lambda"],
                          nonlin=self.build_nonlinearity(),
                          g=self.build_profile("g"), h=self.build_profile("h"),
                          delta=self.values["model.delta"])

    def build_solve_spec(self) -> SolveSpec:
        return SolveSpec(dt=self.values["solver.dt"],
                         scheme=self.values["solver.scheme"],
                         record_every=self.values["solver.record_every"],
                         stability_factor=self.values["solver.stability_factor"])

    def build_family(self) -> TemperedFamilySpec:
        beta = self.values["experiment.growth_beta"]
        return TemperedFamilySpec(
            kind="subexponential_growth" if beta > 0 else "fixed_ball",
            radius_0=self.values["experiment.radius_0"], growth_beta=beta)

    @property
    def seeds(self) -> List[int]:
        return list(self.values["path.seeds"])

    @property
    def dt_path(self) -> float:
        return self.values["path.dt_path"]


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate; raises ConfigError listing *all* problems.

    Each semantic rule is checked by the object that consumes the value:
    parsing builds the O(1) ones and runs the experiments', solver's and
    paths' argument checks, but never builds a field or samples a path."""
    errors: List[str] = []
    raw: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected `key = value`, got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in raw:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = (lineno, value)

    for key in _REQUIRED:
        if key not in raw:
            errors.append(f"missing required key {key!r}")

    values: Dict[str, object] = {}
    for key, (parser, default) in _SCHEMA.items():
        if key in raw:
            lineno, text_val = raw[key]
            try:
                values[key] = parser(text_val)
            except (ValueError, TypeError):
                errors.append(f"line {lineno}: cannot parse {key} from {text_val!r}")
        else:
            values[key] = default

    if errors:
        raise ConfigError(errors)

    if values["path.dt_path"] is None:
        values["path.dt_path"] = values["solver.dt"]
    cfg = RunConfig(values=values)

    def line_of(key: str) -> str:
        return f"line {raw[key][0]}: " if key in raw else ""

    def owned(section: str, check, *args):
        """`check(*args)` (True if it returns nothing), or None once its
        error is filed under the key its message's first word names."""
        try:
            out = check(*args)
        except ValueError as exc:
            name = re.match(r"\w*", str(exc)).group()
            errors.append(line_of(section + _ALIASES.get(name, name)) + str(exc))
            return None
        return True if out is None else out

    # semantic rules, each checked by the object or function that owns it;
    # a cross-check is skipped when one of its inputs already failed
    grid = owned("grid.", cfg.build_grid)
    nonlin = owned("model.", cfg.build_nonlinearity)
    rates = nonlin and owned("model.", rate_split, values["model.alpha"],
                             values["model.lambda"], nonlin.c2, values["model.delta"])
    for name in "gh":
        owned(f"model.{name}.", cfg.build_profile, name)
    spec = owned("solver.", cfg.build_solve_spec)
    if grid and rates and spec:
        lam_prime = shifted_lambda(values["model.alpha"], values["model.lambda"], rates[0])
        owned("solver.", check_stability, grid, spec.dt, lam_prime, spec.stability_factor)
    owned("experiment.", cfg.build_family)
    if grid:
        owned("experiment.", check_tail_args, values["experiment.epsilon"],
              values["experiment.k_list"], grid)
    taus_ok = owned("experiment.", check_tau_list, values["experiment.tau_list"])
    # an unset dt_path is solver.dt, which the solve spec checks first
    path_ok = owned("path.", check_path_range, values["path.t_min"], 0.0,
                    values["path.dt_path"] if "path.dt_path" in raw or spec else math.inf)
    if spec:
        owned("path.", check_path_alignment, values["path.dt_path"], values["solver.dt"])

    # rules no object owns
    taus = values["experiment.tau_list"]
    if path_ok and taus_ok and taus and min(taus) < values["path.t_min"]:
        errors.append("experiment.tau_list exceeds the path range (path.t_min)")
    if not values["path.seeds"]:
        errors.append(line_of("path.seeds") + "path.seeds must name at least one seed")
    if values["experiment.initial"] not in ("zero", "random", "gaussian"):
        errors.append(line_of("experiment.initial")
                      + "initial must be zero, random or gaussian")

    if errors:
        raise ConfigError(errors)

    return RunConfig(values=values)
