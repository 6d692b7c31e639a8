"""One benchmark run: set-up probes, then a closed loop over a workload's
subcommand sequence through `rdawave.cli.main`, one client, until the
measuring window ends.

Every invocation starts with the program's caches empty and writes into its
own output directory with `--deterministic`, so each sequence's artifacts
must be byte-identical to the first sequence's.  An invocation that leaves
other program state grown fails: such state would carry work over to the
next invocation, which a fresh `rda-wave` process never gets.  A traced run
alternates untraced and traced sequences; that both gives the tracing
overhead and shows tracing does not change a byte of output.
"""
from __future__ import annotations

import filecmp
import gc
import hashlib
import importlib
import io
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from . import BLAS_ENV, ROOT, SRC, WORK_DIR
from .checks import ATOL, RTOL, check_invocation, check_reference
from .tracing import LayerTotals, Tracer, clear_program_caches, program_state_sizes
from .workloads import Workload

SETUP_PROBES = 5
COUNT_UNITS = ("count", "B")
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


@dataclass
class RunResult:
    workload: Workload
    seed: int
    trace: bool
    facts: dict
    setup_s: List[float]
    run_s: List[float] = field(default_factory=list)          # untraced sequences
    traced_run_s: List[float] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    failed_invocations: int = 0
    layers: List[dict] = field(default_factory=list)           # per traced sequence
    missing_targets: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    tracer: Optional[Tracer] = None

    @property
    def correct(self) -> bool:
        """No invocation failed and every trace target was found."""
        return self.failed_invocations == 0 and not self.missing_targets


def measure_setup(config: Path) -> float:
    """Seconds a fresh interpreter spends importing the CLI, parsing the
    config, building the model and sampling the paths."""
    env = dict(os.environ, **{var: "1" for var in BLAS_ENV})
    proc = subprocess.run([sys.executable, str(PROBE), str(SRC), str(config)],
                          capture_output=True, text=True, env=env, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def _invoke(cli, argv) -> Optional[int]:
    try:
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:  # a crash fails this invocation, not the whole run
        traceback.print_exc()
        return None


def _next_cpu(cpus: List[int]) -> None:
    """Pin this process to the next CPU in turn.  Each CPU of a shared host
    speeds up and slows down on its own, for seconds at a time; going round
    the CPUs averages those phases instead of sampling one CPU's."""
    cpus.append(cpus.pop(0))
    os.sched_setaffinity(0, {cpus[0]})


def _leftover_state(baseline: Dict[str, int]) -> List[str]:
    """Program state that is larger, caches emptied, than at the run's start."""
    clear_program_caches()
    return [f"{name} holds {size} entries after the invocation, {baseline.get(name, 0)} "
            "at the start of the run: state that outlives an invocation"
            for name, size in sorted(program_state_sizes().items())
            if size > baseline.get(name, 0)]


def _sequence(cli, workload: Workload, config: Path, seq_dir: Path, cpus: List[int],
              baseline: Dict[str, int], tracer: Optional[Tracer] = None):
    """Run the subcommands once.  Returns wall times, exit codes and, per
    subcommand, the program state it left behind."""
    walls, codes, leftovers = {}, {}, {}
    for cmd in workload.subcommands:
        _next_cpu(cpus)
        clear_program_caches()  # `rda-wave check` runs between sequences
        gc.collect()  # start each invocation from a collected heap, as a fresh process does
        argv = [cmd, "--config", str(config), "--deterministic", "--out", str(seq_dir / cmd)]
        if tracer is not None:
            tracer.invocation_id += 1
        t0 = time.perf_counter()
        codes[cmd] = _invoke(cli, argv)
        walls[cmd] = time.perf_counter() - t0
        leftovers[cmd] = _leftover_state(baseline)
    return walls, codes, leftovers


def _same_bytes(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        references: Optional[dict] = None, probes: Optional[int] = None,
        spans_out: Optional[Path] = None) -> RunResult:
    """`references` is the workload's reference file content; an invocation
    whose input set it does not cover fails.  `probes` defaults to
    SETUP_PROBES; `spans_out`, if given, receives the traced run's spans."""
    run_dir = WORK_DIR / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    affinity = os.sched_getaffinity(0)
    try:
        return _run(workload, seed, seconds, trace, references or {},
                    SETUP_PROBES if probes is None else probes, spans_out, run_dir)
    finally:
        os.sched_setaffinity(0, affinity)
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(workload, seed, seconds, trace, references, probes, spans_out, run_dir):
    config = run_dir / "run.cfg"
    config.write_text(workload.config_text(seed))
    cli = importlib.import_module("rdawave.cli")
    facts = run_facts(workload, seed)  # before pinning, so nproc counts every CPU
    cpus = sorted(os.sched_getaffinity(0))
    setup_s = []
    for _ in range(probes):
        _next_cpu(cpus)  # the probe inherits the pinning
        setup_s.append(measure_setup(config))
    result = RunResult(workload=workload, seed=seed, trace=trace, facts=facts,
                       setup_s=setup_s)
    input_set = workload.input_set(seed)
    reference = references.get("seeds", {}).get(str(input_set))
    rtol, atol = references.get("rtol", RTOL), references.get("atol", ATOL)
    tracer = Tracer() if trace else None
    clear_program_caches()
    baseline = program_state_sizes()

    golden: Optional[Path] = None
    deadline = time.perf_counter() + seconds
    index = 0
    while (index == 0 or time.perf_counter() < deadline
           or (trace and not result.traced_run_s)):
        traced = trace and index % 2 == 1
        seq_dir = run_dir / f"seq{index}"
        if traced:
            before, lo = Counter(tracer.counts), tracer.mark()
            tracer.install()
            try:
                walls, codes, leftovers = _sequence(cli, workload, config, seq_dir, cpus,
                                                    baseline, tracer)
            finally:
                tracer.uninstall()
            counts = tracer.counts - before
            result.layers.append(layer_metrics(tracer.summary(lo, tracer.mark(), counts)))
            result.traced_run_s.append(sum(walls.values()))
        else:
            walls, codes, leftovers = _sequence(cli, workload, config, seq_dir, cpus,
                                                baseline)
            result.run_s.append(sum(walls.values()))
            for cmd, wall in walls.items():
                result.samples.setdefault(cmd, []).append(wall)

        for cmd in workload.subcommands:
            result.attempted += 1
            out = seq_dir / cmd
            problems = check_invocation(cli.main, cmd, codes[cmd], out, config)
            if not problems:
                problems = check_reference(
                    cmd, out, None if reference is None else reference.get(cmd),
                    f"input set {input_set}", rtol, atol)
            problems += [f"{cmd}: {p}" for p in leftovers[cmd]]
            if not problems and golden is not None and not _same_bytes(golden / cmd, out):
                problems.append(f"{cmd}: artifacts of sequence {index}"
                                f"{' (traced)' if traced else ''} differ from sequence 0")
            if problems:
                result.failed_invocations += 1
                result.problems += problems
        if golden is None:
            golden = seq_dir
        else:
            shutil.rmtree(seq_dir, ignore_errors=True)
        index += 1

    if tracer is not None:
        result.tracer = tracer
        result.missing_targets = tracer.missing
        if spans_out is not None:
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            tracer.save(spans_out)
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def layer_metrics(t: LayerTotals) -> Dict[str, tuple]:
    """Per-layer metrics of one traced sequence: name -> (value, unit)."""
    def calls(layer):
        return t.get(layer)[0], "count"

    def inclusive(layer):
        return t.get(layer)[1], "s"

    def own(layer):
        return t.get(layer)[2], "s"

    step_calls, step_s, _ = t.get("solver.step")
    solve_s = t.get("solver.linsolve")[1]
    cg_solves = t.counts["solver.cg.solves"]
    return {
        "config.parse_config.s": inclusive("config.parse_config"),
        "paths.generate_path.s": inclusive("paths.generate_path"),
        "paths.generate_path.nodes": (t.counts["paths.generate_path.nodes"], "count"),
        "paths.evaluate.calls": calls("paths.evaluate"),
        "paths.evaluate.s": inclusive("paths.evaluate"),
        "model.f.calls": calls("model.f"),
        "model.f.s": inclusive("model.f"),
        "model.F.calls": calls("model.F"),
        "model.F.s": inclusive("model.F"),
        "grid.laplacian_matrix.calls": calls("grid.laplacian_matrix"),
        "grid.laplacian_matrix.s": inclusive("grid.laplacian_matrix"),
        "grid.norms.calls": calls("grid.norms"),
        "grid.norms.s": inclusive("grid.norms"),
        "grid.tail_weighted_norms.calls": calls("grid.tail_weighted_norms"),
        "grid.tail_weighted_norms.s": inclusive("grid.tail_weighted_norms"),
        "solver.step.calls": (step_calls, "count"),
        "solver.step.self_s": own("solver.step"),
        "solver.step.us": (1e6 * step_s / step_calls if step_calls else 0.0, "us"),
        "solver.evolve.calls": calls("solver.evolve"),
        "solver.evolve.self_s": own("solver.evolve"),
        "solver.linsolve.calls": calls("solver.linsolve"),
        "solver.linsolve.s": (solve_s, "s"),
        "solver.linsolve.share": (solve_s / step_s if step_s else 0.0, "frac"),
        "solver.cg.iters_per_solve": (t.counts["solver.cg.iterations"] / cg_solves
                                      if cg_solves else 0.0, "count"),
        "solver.factorizations": (t.counts["solver.factorizations"], "count"),
        "solver.factorize.s": inclusive("solver.factorize"),
        "energy.observer.calls": calls("energy.observer"),
        "energy.observer.s": inclusive("energy.observer"),
        "energy.psi.s": inclusive("energy.psi"),
        "energy.energy_E.s": inclusive("energy.energy_E"),
        "energy.tail_energy.s": inclusive("energy.tail_energy"),
        "energy.energy_identity_residual.s": inclusive("energy.energy_identity_residual"),
        "experiments.initial_state.s": inclusive("experiments.initial_state"),
        "experiments.experiment.self_s": own("experiments.experiment"),
        "oracles.reference.s": inclusive("oracles.reference"),
        "oracles.modal_error.calls": calls("oracles.modal_error"),
        "reporting.write.s": inclusive("reporting.write"),
        "reporting.bytes": (t.counts["reporting.bytes"], "B"),
        "reporting.files": (t.counts["reporting.files"], "count"),
        "cli.self_s": own("cli.main"),
    }


def tail_percentile(samples: List[float]):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value), or None when there are ten samples or fewer."""
    n = len(samples)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def end_to_end(result: RunResult) -> Dict[str, dict]:
    """name -> {value, unit, n, tail}; `tail` is (percentile, value) or None."""
    def timing(samples, unit="s"):
        return {"value": statistics.median(samples), "unit": unit, "n": len(samples),
                "tail": tail_percentile(samples)}

    wl = result.workload
    run_s = timing(result.run_s)
    m = {"run_s": run_s}
    for cmd in wl.subcommands:
        m[f"{cmd}_s"] = timing(result.samples[cmd])
    m["traj_steps_per_s"] = {"value": wl.sequence_steps / run_s["value"], "unit": "steps/s",
                             "n": run_s["n"], "tail": None}
    m["setup_s"] = timing(result.setup_s)
    m["peak_rss_mb"] = {"value": result.peak_rss_mb, "unit": "MB", "n": 1, "tail": None}
    m["fail_frac"] = {"value": result.failed_invocations / result.attempted, "unit": "frac",
                      "n": result.attempted, "tail": None}
    return m


def per_layer(result: RunResult) -> Dict[str, dict]:
    """Medians over the traced sequences for times; counts from the first
    traced sequence (they repeat exactly)."""
    m = {}
    for name, (value, unit) in result.layers[0].items():
        if unit not in COUNT_UNITS:
            value = statistics.median(layers[name][0] for layers in result.layers)
        m[name] = {"value": value, "unit": unit}
    untraced, traced = statistics.median(result.run_s), statistics.median(result.traced_run_s)
    m["trace.overhead_frac"] = {"value": (traced - untraced) / untraced, "unit": "frac"}
    return m


def layer_counts(layers: dict) -> dict:
    return {k: v for k, (v, unit) in layers.items() if unit in COUNT_UNITS}


def counts_repeat(result: RunResult) -> bool:
    """True when every traced sequence of the run made the same counts."""
    first = layer_counts(result.layers[0])
    return all(layer_counts(layers) == first for layers in result.layers)


# -- run facts -------------------------------------------------------------

def _git_sha() -> Optional[str]:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rdawave").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _blas_threads() -> Dict[str, int]:
    """Thread count each loaded OpenBLAS reports, read through ctypes."""
    import ctypes

    libs = set()
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        pass
    out = {}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                out[Path(lib_path).name] = getter()
                break
    return out


def run_facts(workload: Workload, seed: int) -> dict:
    import numpy
    import scipy
    import scipy.sparse.linalg  # noqa: F401  loads scipy's own BLAS

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "blas_pinning": "=".join(BLAS_ENV) + "=1 in the environment before numpy loads",
        "seed": seed,
        "input_set": workload.input_set(seed),
        "path_seeds": workload.seeds(seed),
        "nodes": workload.nodes,
        "traj_steps_per_sequence": workload.sequence_steps,
    }
