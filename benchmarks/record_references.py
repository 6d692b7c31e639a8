#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks invocations against.

    python3 benchmarks/record_references.py

Runs each workload's subcommands once per input set (benchmark seeds
0 .. INPUT_SETS-1) with the program in `src/` and writes
`benchmarks/references/<workload>.json`: the report numbers
(`checks.extract`) per input set and subcommand, and the relative and
absolute tolerance they are compared at.  An invocation that fails its exit code or
hash check is not recorded; the script then exits 1.
"""
import io
import json
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

from rdabench import SRC, WORK_DIR, pin_blas

pin_blas()
sys.path.insert(0, str(SRC))

from rdabench.checks import ATOL, REFERENCE_DIR, RTOL, check_invocation, extract  # noqa: E402
from rdabench.tracing import clear_program_caches  # noqa: E402
from rdabench.workloads import INPUT_SETS, WORKLOADS  # noqa: E402


def record(workload, seed: int, work: Path) -> dict:
    from rdawave.cli import main

    config = work / "run.cfg"
    config.write_text(workload.config_text(seed))
    per_cmd = {}
    for cmd in workload.subcommands:
        out = work / cmd
        clear_program_caches()
        with redirect_stdout(io.StringIO()):
            rc = main([cmd, "--config", str(config), "--deterministic", "--out", str(out)])
        problems = check_invocation(main, cmd, rc, out, config)
        if problems:
            raise RuntimeError(f"{workload.name} seed {seed}: {problems}")
        per_cmd[cmd] = extract(cmd, out)
    return per_cmd


def main() -> int:
    status = 0
    for name in sorted(WORKLOADS):
        work = WORK_DIR / f"references-{name}"
        recorded = {}
        for seed in range(INPUT_SETS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                recorded[str(seed)] = record(WORKLOADS[name], seed, work)
            except RuntimeError as exc:
                sys.stderr.write(f"not recorded: {exc}\n")
                status = 1
        shutil.rmtree(work, ignore_errors=True)
        REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(
            {"workload": name, "rtol": RTOL, "atol": ATOL, "seeds": recorded},
            indent=1, sort_keys=True) + "\n")
        print(f"{name}: recorded seeds {sorted(recorded, key=int)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
