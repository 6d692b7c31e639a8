"""Flat `section.key = value` run configuration: parsing, validation, defaults.

Parsing collects *all* errors (with line numbers) before failing, and the
canonical form of a validated config has a stable hash that is embedded in
every output file.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional

from .grid import Grid
from .model import FieldProfile, Model, PowerNonlinearity, make_model
from .reporting import config_hash
from .solver import SolveSpec

__all__ = ["RunConfig", "ConfigError", "parse_config", "DEFAULT_SEEDS"]

DEFAULT_SEEDS = tuple(range(8))


class ConfigError(ValueError):
    def __init__(self, errors: List[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def _parse_float_list(text: str) -> List[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_int_list(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _parse_splits(text: str) -> List[tuple]:
    out = []
    for item in text.split(","):
        if not item.strip():
            continue
        s, t = item.split(":")
        out.append((float(s), float(t)))
    return out


# key -> (parser, default). Defaults of None are filled contextually.
_SCHEMA = {
    "model.alpha": (float, 1.0),
    "model.lambda": (float, 1.0),
    "model.delta": (float, None),
    "model.gamma": (float, 3.0),
    "model.a": (float, 1.0),
    "model.b": (float, 0.0),
    "model.g.profile": (str, "gaussian"),
    "model.g.amplitude": (float, 1.0),
    "model.g.width": (float, 1.0),
    "model.g.center": (float, 0.0),
    "model.h.profile": (str, "gaussian"),
    "model.h.amplitude": (float, 1.0),
    "model.h.width": (float, 1.0),
    "model.h.center": (float, 0.0),
    "grid.dim": (int, 1),
    "grid.L": (float, 40.0),
    "grid.n": (int, 1024),
    "solver.dt": (float, 0.01),
    "solver.scheme": (str, "semi_implicit"),
    "solver.record_every": (int, 10),
    "solver.stability_factor": (float, 5.0),
    "path.seeds": (_parse_int_list, list(DEFAULT_SEEDS)),
    "path.t_min": (float, -128.0),
    "path.dt_path": (float, None),  # defaults to solver.dt
    "experiment.tau_list": (_parse_float_list, [-2.0, -4.0, -8.0, -16.0, -32.0, -64.0]),
    "experiment.radius_0": (float, 1.0),
    "experiment.growth_beta": (float, 0.0),
    "experiment.epsilon": (float, 1e-3),
    "experiment.k_list": (_parse_float_list, [5.0, 10.0, 15.0, 20.0]),
    "experiment.t_end": (float, 10.0),
    "experiment.initial": (str, "zero"),
    "experiment.splits": (_parse_splits,
                          [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0),
                           (1.0, 3.0), (3.0, 1.0), (2.0, 3.0), (3.0, 2.0)]),
}

_REQUIRED = ("model.alpha", "model.lambda", "grid.n", "solver.dt")


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

    def build_model(self, grid: Optional[Grid] = None) -> Model:
        grid = grid or self.build_grid()
        nl = PowerNonlinearity(a=self.values["model.a"],
                               gamma=self.values["model.gamma"],
                               b=self.values["model.b"])
        g = FieldProfile(kind=self.values["model.g.profile"],
                         amplitude=self.values["model.g.amplitude"],
                         width=self.values["model.g.width"],
                         center=self.values["model.g.center"])
        h = FieldProfile(kind=self.values["model.h.profile"],
                         amplitude=self.values["model.h.amplitude"],
                         width=self.values["model.h.width"],
                         center=self.values["model.h.center"])
        return make_model(grid, alpha=self.values["model.alpha"],
                          lam=self.values["model.lambda"], nonlin=nl,
                          g=g, h=h, delta=self.values["model.delta"])

    def build_solve_spec(self) -> SolveSpec:
        return SolveSpec(dt=self.values["solver.dt"],
                         scheme=self.values["solver.scheme"],
                         record_every=self.values["solver.record_every"],
                         stability_factor=self.values["solver.stability_factor"])

    @property
    def seeds(self) -> List[int]:
        return list(self.values["path.seeds"])

    @property
    def dt_path(self) -> float:
        return self.values["path.dt_path"]


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate; raises ConfigError listing *all* problems."""
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

    def line_of(key: str) -> str:
        return f"line {raw[key][0]}: " if key in raw else ""

    # semantic constraints; report all failures
    if values["model.alpha"] <= 0.0:
        errors.append(line_of("model.alpha") + "alpha must be positive")
    if values["model.lambda"] <= 0.0:
        errors.append(line_of("model.lambda") + "lambda must be positive")
    if not (1.0 <= values["model.gamma"] <= 3.0):
        errors.append(line_of("model.gamma") + "gamma must lie in [1, 3]")
    if values["model.a"] <= 0.0:
        errors.append(line_of("model.a") + "a must be positive")
    if values["model.b"] < 0.0:
        errors.append(line_of("model.b") + "b must be nonnegative")
    if values["grid.dim"] not in (1, 2, 3):
        errors.append(line_of("grid.dim") + "dim must be 1, 2 or 3")
    if values["grid.L"] <= 0.0:
        errors.append(line_of("grid.L") + "L must be positive")
    if values["grid.n"] < 3:
        errors.append(line_of("grid.n") + "n must be >= 3")
    if values["solver.dt"] <= 0.0:
        errors.append(line_of("solver.dt") + "dt must be positive")
    if values["solver.scheme"] not in ("semi_implicit", "crank_nicolson_linear"):
        errors.append(line_of("solver.scheme") + "unknown scheme")
    if values["solver.record_every"] < 1:
        errors.append(line_of("solver.record_every") + "record_every must be >= 1")
    if not values["path.seeds"]:
        errors.append(line_of("path.seeds") + "path.seeds must name at least one seed")
    if values["path.t_min"] > 0.0:
        errors.append(line_of("path.t_min") + "path t_min must be <= 0")
    if values["experiment.epsilon"] <= 0.0:
        errors.append(line_of("experiment.epsilon") + "epsilon must be positive")

    if values["path.dt_path"] is None:
        values["path.dt_path"] = values["solver.dt"]
    dtp, dt = values["path.dt_path"], values["solver.dt"]
    if dtp <= 0.0:
        errors.append(line_of("path.dt_path") + "dt_path must be positive")
    elif dt > 0.0:
        ratio = dtp / dt if dtp >= dt else dt / dtp
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            errors.append("solver.dt and path.dt_path must have an integer ratio")

    alpha, lam = values["model.alpha"], values["model.lambda"]
    delta = values["model.delta"]
    if delta is not None and alpha > 0.0 and lam > 0.0:
        if alpha - delta <= 0.0 or lam + delta ** 2 - alpha * delta <= 0.0 or delta <= 0.0:
            errors.append(line_of("model.delta")
                          + "delta violates the admissibility inequalities")

    k_list = values["experiment.k_list"]
    if k_list and values["grid.L"] > 0.0:
        if 2.0 ** 0.5 * max(k_list) >= values["grid.L"]:
            errors.append("experiment.k_list: sqrt(2)*max(k) must be < grid.L")
    if any(t >= 0.0 for t in values["experiment.tau_list"]):
        errors.append("experiment.tau_list entries must be negative")
    if values["experiment.tau_list"] and values["path.t_min"] is not None:
        if min(values["experiment.tau_list"]) < values["path.t_min"]:
            errors.append("experiment.tau_list exceeds the path range (path.t_min)")
    if values["experiment.initial"] not in ("zero", "random", "gaussian"):
        errors.append(line_of("experiment.initial")
                      + "initial must be zero, random or gaussian")

    if errors:
        raise ConfigError(errors)

    return RunConfig(values=values)
