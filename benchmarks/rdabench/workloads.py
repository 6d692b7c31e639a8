"""The pinned workloads: the config each one writes for a seed, the
subcommands it runs in order, and the trajectory-steps its configs imply.

Every key that decides the amount of work is written out here rather than
left to the program's defaults, so the step count is a function of this file.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

# Distinct inputs per workload: the benchmark seed picks input set
# seed % INPUT_SETS, and references/ holds the outputs of every set.
INPUT_SETS = 20

# The oracle subcommand runs a fixed dt-halving study, independent of the
# config: both schemes at these dts up to this end time.
ORACLE_DTS = (1e-2, 5e-3, 2.5e-3)
ORACLE_T_END = 10.0
ORACLE_SCHEMES = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Dict[str, str]          # every key but path.seeds
    n_seeds: int
    subcommands: Tuple[str, ...]

    @staticmethod
    def input_set(seed: int) -> int:
        return seed % INPUT_SETS

    def seeds(self, seed: int) -> List[int]:
        """Path seeds written into the config: input set k gives
        k*n_seeds .. k*n_seeds + n_seeds - 1."""
        base = self.n_seeds * self.input_set(seed)
        return [base + i for i in range(self.n_seeds)]

    def config_text(self, seed: int) -> str:
        lines = [f"{k} = {v}" for k, v in self.config.items()]
        lines.append("path.seeds = " + ",".join(str(s) for s in self.seeds(seed)))
        return "\n".join(lines) + "\n"

    @property
    def nodes(self) -> int:
        return int(self.config["grid.n"]) ** int(self.config["grid.dim"])

    def traj_steps(self, cmd: str) -> int:
        """Sum over the trajectories `cmd` marches of ceil((t_end - tau) / dt)."""
        dt = float(self.config["solver.dt"])
        taus = [float(x) for x in self.config.get("experiment.tau_list", "").split(",") if x]

        def steps(length: float, step: float = dt) -> int:
            return math.ceil(length / step - 1e-9)

        if cmd == "simulate":
            return steps(float(self.config["experiment.t_end"]))
        if cmd in ("absorb", "tails", "pullback"):
            return self.n_seeds * sum(steps(-tau) for tau in taus)
        if cmd == "cocycle":
            splits = [tuple(float(x) for x in item.split(":"))
                      for item in self.config["experiment.splits"].split(",")]
            # direct run over s+t, then s, then t on the shifted path
            return self.n_seeds * sum(steps(s + t) + steps(s) + steps(t) for s, t in splits)
        if cmd == "oracle":
            return ORACLE_SCHEMES * sum(steps(ORACLE_T_END, d) for d in ORACLE_DTS)
        raise ValueError(f"no step count for subcommand {cmd!r}")

    @property
    def sequence_steps(self) -> int:
        return sum(self.traj_steps(cmd) for cmd in self.subcommands)


_BASE = {"model.alpha": "1.0", "model.lambda": "1.0", "grid.dim": "1",
         "solver.dt": "0.01", "solver.scheme": "semi_implicit"}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="accept-1d",
        why="acceptance config: ~55k small 1-D steps through every subcommand, "
            "dominated by per-step Python in the stepper",
        config={**_BASE, "grid.n": "512", "grid.L": "40",
                "solver.record_every": "20", "path.t_min": "-40",
                "experiment.tau_list": "-2,-4,-8,-16,-32",
                "experiment.t_end": "5.0",
                "experiment.splits": "1:1,1:2,2:1",
                "experiment.k_list": "5,10,15,20"},
        n_seeds=2,
        subcommands=("simulate", "absorb", "tails", "pullback", "cocycle", "oracle")),
    Workload(
        name="plane-2d",
        why="2-D n=127 (n+1=128): ~4k steps whose time is mostly the CG "
            "linear solve",
        config={**_BASE, "grid.dim": "2", "grid.n": "127", "grid.L": "20",
                "solver.record_every": "20", "path.t_min": "-8",
                "experiment.tau_list": "-1,-2,-4,-8",
                "experiment.t_end": "2.0",
                "experiment.splits": "1:1",
                "experiment.k_list": "4,8,12"},
        n_seeds=2,
        subcommands=("simulate", "absorb", "cocycle")),
    Workload(
        name="record-dense",
        why="one 1-D n=1024 trajectory recording E, Psi and four tails every "
            "step: observers, not the march, take the time",
        config={**_BASE, "grid.n": "1024", "grid.L": "40",
                "solver.record_every": "1", "path.t_min": "-1",
                "experiment.tau_list": "-1",
                "experiment.t_end": "20.0",
                "experiment.initial": "gaussian",
                "experiment.k_list": "5,10,15,20"},
        n_seeds=1,
        subcommands=("simulate",)),
)}

# Small grids and short horizons with the same subcommands, for self-tests.
_TINY = {
    "accept-1d": {"grid.n": "48", "experiment.tau_list": "-1,-2,-4",
                  "path.t_min": "-4", "experiment.t_end": "0.4",
                  "experiment.splits": "0.1:0.1,0.1:0.2"},
    "plane-2d": {"grid.n": "15", "experiment.tau_list": "-0.5,-1,-2",
                 "path.t_min": "-2", "experiment.t_end": "0.4",
                 "experiment.splits": "0.1:0.1"},
    "record-dense": {"grid.n": "64", "experiment.t_end": "0.5"},
}


def tiny(workload: Workload) -> Workload:
    return replace(workload, config={**workload.config, **_TINY[workload.name]})
