"""Output checks for one subcommand invocation.

An invocation passes when it exits 0, `rda-wave check` finds every output
file carrying the config hash, and its report numbers match the ones
recorded for its input set within the recorded tolerance; an input set with
no recorded numbers fails.  Cocycle defects are roundoff, so they are held
to the program's 1e-10 gate instead of to reference values.
"""
from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable, Dict, List

from . import ROOT

REFERENCE_DIR = ROOT / "benchmarks" / "references"
RTOL = 1e-6
ATOL = 1e-12
COCYCLE_GATE = 1e-10

REPORTS = {"absorb": "absorb_report.json", "tails": "tails_report.json",
           "pullback": "pullback_report.json", "cocycle": "cocycle_report.json",
           "oracle": "oracle_report.json"}


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    elif isinstance(value, (int, float, bool)) or value is None:
        out[prefix] = value


def _final_row(path: Path, columns) -> Dict[str, float]:
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    table = list(csv.DictReader(rows))
    return {f"{path.name}:{c}": float(table[-1][c]) for c in columns}


def extract(cmd: str, out_dir: Path) -> dict:
    """The numbers of an invocation's outputs that references pin down."""
    values: dict = {}
    if cmd == "simulate":
        for path in sorted(out_dir.glob("*_seed*.csv")):
            values.update(_final_row(path, ("E", "Psi")))
        return values
    payload = json.loads((out_dir / REPORTS[cmd]).read_text())
    if cmd == "oracle":
        _flatten("", payload, values)
    else:
        for key in ("results", "margins", "flags", "passed"):
            _flatten(key, payload.get(key), values)
    if cmd == "cocycle":  # roundoff: checked against the gate instead
        values = {k: v for k, v in values.items()
                  if not k.startswith("results.") and k != "margins.max_relative_defect"}
    return values


def cocycle_defects(out_dir: Path) -> List[float]:
    payload = json.loads((out_dir / REPORTS["cocycle"]).read_text())
    return [d for per_split in payload["results"].values() for d in per_split.values()]


def compare(values: dict, reference: dict, rtol: float, atol: float) -> List[str]:
    problems = []
    for key in sorted(set(values) | set(reference)):
        if key not in values or key not in reference:
            problems.append(f"{key}: present in only one of output and reference")
            continue
        got, want = values[key], reference[key]
        if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
            if not math.isclose(got, want, rel_tol=rtol, abs_tol=atol):
                problems.append(f"{key}: {got!r} differs from reference {want!r}")
        elif got != want or type(got) is not type(want):
            problems.append(f"{key}: {got!r} != reference {want!r}")
    return problems


def load_references(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def check_invocation(main: Callable, cmd: str, rc, out_dir: Path, config: Path) -> List[str]:
    """Problems with one invocation's exit code, config hashes and cocycle
    defects; empty when it passed."""
    if rc != 0:
        return [f"{cmd}: exit code {rc}"]
    with redirect_stdout(io.StringIO()) as text:
        check_rc = main(["check", "--config", str(config), "--out", str(out_dir)])
    if check_rc != 0:
        return [f"{cmd}: rda-wave check exit {check_rc}: {text.getvalue().strip()}"]
    problems = []
    if cmd == "cocycle":
        worst = max(cocycle_defects(out_dir))
        if not worst <= COCYCLE_GATE:
            problems.append(f"cocycle: defect {worst:.3g} above {COCYCLE_GATE:g}")
    return problems


def check_reference(cmd: str, out_dir: Path, reference, what: str,
                    rtol: float = RTOL, atol: float = ATOL) -> List[str]:
    """Problems comparing an invocation's report numbers with `reference`,
    the values recorded for this subcommand and input set (`what`); None
    means nothing was recorded, which is itself a problem."""
    if reference is None:
        return [f"{cmd}: no reference values recorded for {what}"]
    return [f"{cmd}: {p}" for p in compare(extract(cmd, out_dir), reference, rtol, atol)]
