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

from .experiments import (LEAST, TemperedFamilySpec, check_k_list, check_positive, check_splits,
                          check_tau_list)
from .grid import Grid
from .model import (FieldProfile, Model, PowerNonlinearity, make_model, rate_split,
                    shifted_lambda)
from .oracles import check_oracle_grid, check_oracle_steps
from .paths import check_path_range, check_seeds
from .reporting import config_hash
from .solver import SolveSpec, check_path_alignment, check_stability, step_count, whole_steps

__all__ = ["RunConfig", "ConfigError", "parse_config", "DEFAULT_SEEDS", "READS"]

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

# subcommand -> the `experiment.` keys it reads, a list with its fewest values
# (0: a scalar); none for oracle or check.  Absorb's and pullback's columns
# start on the family sphere, whose radius grows with |tau| at the rate growth_beta.
READS = {"simulate": {"t_end": 0, "k_list": 0, "initial": 0, "radius_0": 0},
         **{cmd: {**least, "radius_0": 0} for cmd, least in LEAST.items()}}
READS["absorb"]["growth_beta"] = READS["pullback"]["growth_beta"] = READS["tails"]["epsilon"] = 0

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
        return TemperedFamilySpec(radius_0=self.values["experiment.radius_0"],
                                  growth_beta=self.values["experiment.growth_beta"])

    @property
    def seeds(self) -> List[int]:
        return list(self.values["path.seeds"])

    @property
    def dt_path(self) -> float:
        return self.values["path.dt_path"]


def parse_config(text: str, command: str = "") -> RunConfig:
    """Parse and fully validate for the subcommand `command`; raises
    ConfigError listing *all* problems.

    Each semantic rule is checked by the object that consumes the value:
    parsing builds the O(1) ones and runs the experiments', solver's and
    paths' argument checks, but never builds a field or samples a path.  An
    experiment rule runs only if `command` reads one of its keys (`READS`),
    `path.t_min`'s range only if it reads a tau list, and the oracle's grid
    and step rules only for `oracle`."""
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

    def owned(where: str, check, *args):
        """`check(*args)` (True if it returns nothing), or None once its
        error is filed under `where` if that is a key, else under the key of
        section `where` that its message's first word names."""
        try:
            out = check(*args)
        except ValueError as exc:
            name = re.match(r"\w*", str(exc)).group()
            key = where if where in _SCHEMA else where + _ALIASES.get(name, name)
            errors.append(line_of(key) + str(exc))
            return None
        return True if out is None else out

    # semantic rules, each checked by the object or function that owns it;
    # a cross-check is skipped when one of its inputs already failed
    grid = owned("grid.", cfg.build_grid)
    if grid and command == "oracle":
        owned("grid.dim", check_oracle_grid, grid)
    nonlin = owned("model.", cfg.build_nonlinearity)
    rates = nonlin and owned("model.", rate_split, values["model.alpha"],
                             values["model.lambda"], nonlin.c2, values["model.delta"])
    for name in "gh":
        owned(f"model.{name}.", cfg.build_profile, name)
    spec = owned("solver.", cfg.build_solve_spec)
    dt_ok = spec
    if grid and rates:
        lam_prime = shifted_lambda(values["model.alpha"], values["model.lambda"], rates[0])
        if spec:
            dt_ok = owned("solver.", check_stability, grid, spec.dt, lam_prime,
                          spec.stability_factor)
        if command == "oracle":  # the study's own steps, on the config's grid
            owned("grid.", check_oracle_steps, grid, lam_prime)
    # an unset dt_path is solver.dt, which the solve spec checks first; only the
    # subcommands that read a tau list sample a path from t_min, the rest from 0
    reads = READS.get(command, {})
    dt_path = values["path.dt_path"] if "path.dt_path" in raw or spec else math.inf
    t_min = values["path.t_min"] if "tau_list" in reads else 0.0
    path_ok = owned("path.", check_path_range, t_min, 0.0, dt_path)
    if spec:
        owned("path.", check_path_alignment, values["path.dt_path"], values["solver.dt"])
    owned("path.seeds", check_seeds, values["path.seeds"])

    # the experiment keys `command` reads, each list against its count; the
    # path ranges of simulate and cocycle are filed under the key of their end
    positive = {name: owned("experiment.", check_positive, name, values["experiment." + name])
                for name in ("epsilon", "radius_0") if name in reads}
    family = positive.get("radius_0") and "growth_beta" in reads and owned(
        "experiment.", cfg.build_family)
    if grid and "k_list" in reads:
        owned("experiment.", check_k_list, values["experiment.k_list"], grid, reads["k_list"])
    taus = values["experiment.tau_list"]
    taus_ok = "tau_list" in reads and dt_ok and owned("experiment.", check_tau_list, taus,
                                                      spec.dt, reads["tau_list"])
    if taus_ok and path_ok and min(taus) < values["path.t_min"]:
        errors.append((line_of("experiment.tau_list") or line_of("path.t_min"))
                      + "experiment.tau_list exceeds the path range (path.t_min)")
    if taus_ok and family:
        owned("experiment.", family.radius, min(taus))  # the widest sphere, at the earliest tau
    if "t_end" in reads and dt_ok:
        # the energy audit needs at least two equally spaced records; a step
        # count past the largest float is not whole, so it has none
        t_end = values["experiment.t_end"]
        steps = step_count(0.0, t_end, spec.dt) if whole_steps(t_end, spec.dt) else 0
        if steps < spec.record_every or steps % spec.record_every:
            errors.append(line_of("experiment.t_end") + f"experiment.t_end={t_end} must be a "
                          "positive whole number of record intervals (solver.record_every*"
                          f"solver.dt = {spec.record_every * spec.dt:g})")
        elif path_ok:
            owned("experiment.t_end", check_path_range, 0.0, t_end, dt_path)
    splits = values["experiment.splits"]
    if ("splits" in reads and dt_ok
            and owned("experiment.", check_splits, splits, spec.dt, reads["splits"])):
        owned("experiment.splits", check_path_range, 0.0, max(s + t for s, t in splits), spec.dt)
    if "initial" in reads and values["experiment.initial"] not in ("zero", "random", "gaussian"):
        errors.append(line_of("experiment.initial")
                      + "initial must be zero, random or gaussian")

    if errors:
        raise ConfigError(errors)

    return cfg
