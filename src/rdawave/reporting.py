"""Deterministic output emission: config hashing, CSV, JSON and report text.

Each writer creates the output directory, so a run that stops before its
first artifact leaves none behind.  A CSV is handed its columns, not its
rows: each column is converted to Python numbers once and each row is
written with one format call."""
from __future__ import annotations

import datetime
import hashlib
import json
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "config_hash",
    "header_lines",
    "write_csv",
    "write_json",
    "read_embedded_hash",
    "report_text",
]


def config_hash(canonical_text: str) -> str:
    return hashlib.sha256(canonical_text.encode("utf-8")).hexdigest()[:16]


def header_lines(cfg_hash: str, deterministic: bool) -> list:
    lines = [f"config_hash={cfg_hash}"]
    if not deterministic:
        lines.append(f"generated={datetime.datetime.now().isoformat()}")
    return lines


def write_csv(path: Path, names: Sequence[str], columns: Sequence[Sequence],
              headers: Sequence[str] = ()) -> None:
    """One row per index of the equal-length `columns`.  Each column goes
    through `np.asarray(col).tolist()` once, so a float cell reads
    `repr(float(x))` (an np.float64 included) and an int cell `str(x)`, and
    `float(cell)` gives x back."""
    cols = [np.asarray(col).tolist() for col in columns]
    row_fmt = ",".join(["%r"] * len(cols)) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for line in headers:
            fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        fh.writelines(row_fmt % row for row in zip(*cols))


def write_json(path: Path, payload: dict, cfg_hash: str, deterministic: bool) -> None:
    payload = dict(payload)
    payload["config_hash"] = cfg_hash
    if not deterministic:
        payload["generated"] = datetime.datetime.now().isoformat()
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_embedded_hash(path: Path) -> str:
    """Extract the config hash embedded in a CSV comment header or JSON
    field: "" when the file holds none or cannot be decoded or parsed."""
    try:
        text = path.read_text()
        if path.suffix == ".json":
            payload = json.loads(text)
            return payload.get("config_hash", "") if isinstance(payload, dict) else ""
    except (ValueError, RecursionError):
        return ""  # not in the locale's encoding, not JSON, or nested past the parser's depth
    for line in text.splitlines():
        if line.startswith("# config_hash="):
            return line.split("=", 1)[1].strip()
        if not line.startswith("#"):
            break
    return ""


def report_text(report: dict, cfg_hash: str) -> str:
    """An experiment report's text form: its flags, margins and verdict."""
    flags, margins = report["flags"], report["margins"]
    lines = [f"experiment: {report['experiment']}", f"config_hash: {cfg_hash}",
             f"seeds: {', '.join(str(s) for s in report['seeds'])}", "flags:"]
    width = max((len(k) for k in flags), default=0)
    lines += [f"  {k:<{width}}  {'PASS' if v else 'FAIL'}" for k, v in flags.items()]
    if margins:
        width = max(len(k) for k in margins)
        lines += ["margins:"] + [f"  {k:<{width}}  {v:.6g}" for k, v in margins.items()]
    lines.append(f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"
