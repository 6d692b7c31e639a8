"""Self-tests of the benchmark at tiny sizes (about a minute).

    python3 -m pytest benchmarks/selftest.py -q
"""
import functools
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import record_references  # noqa: E402
import run as bench_run  # noqa: E402
from rdabench import checks, runner  # noqa: E402
from rdabench import tracing  # noqa: E402
from rdabench.tracing import clear_program_caches, program_state_sizes  # noqa: E402
from rdabench.workloads import INPUT_SETS, WORKLOADS, tiny  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_refs(tmp_path_factory):
    """Each tiny workload's reference file, input set 0 recorded now."""
    return {name: {"seeds": {"0": record_references.record(
                tiny(workload), 0, tmp_path_factory.mktemp(name))}}
            for name, workload in WORKLOADS.items()}


@pytest.fixture
def tiny_workloads(monkeypatch, tiny_refs):
    for name, workload in list(WORKLOADS.items()):
        monkeypatch.setitem(WORKLOADS, name, tiny(workload))
    monkeypatch.setattr(checks, "load_references", tiny_refs.__getitem__)
    monkeypatch.setattr(runner, "SETUP_PROBES", 1)


def _run_main(argv):
    text = io.StringIO()
    with redirect_stdout(text):
        assert bench_run.main(argv) == 0
    lines = text.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric(tiny_workloads, name, trace):
    lines, result = _run_main(["--workload", name, "--seconds", "0", "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] for line in lines[:-1]), m["name"]
    if not trace:  # the time of each subcommand the workload runs, by name
        for cmd in WORKLOADS[name].subcommands:
            assert any(line.split()[:1] == [f"{cmd}_s"] for line in lines[:-1])


def test_spans_nest_and_self_times_are_nonnegative(tiny_refs, tmp_path):
    workload = tiny(WORKLOADS["accept-1d"])
    spans = tmp_path / "spans.npz"
    result = runner.run(workload, 0, 0, True, tiny_refs["accept-1d"], probes=0,
                        spans_out=spans)
    assert result.correct, result.problems
    tracer = result.tracer
    assert len(tracer.layer) > 1000
    assert tracer.check_nesting() == []
    # one root span per invocation, each with an invocation id of its own
    roots = [i for i in range(len(tracer.layer)) if tracer.parent[i] < 0]
    assert {tracer.names[tracer.layer[i]] for i in roots} == {"cli.main"}
    assert len(roots) == len(workload.subcommands) * len(result.traced_run_s)
    assert len({tracer.invocation[i] for i in roots}) == len(roots)
    saved = np.load(spans)
    assert saved["invocation"].tolist() == tracer.invocation.tolist()


def test_uninstall_restores_the_program(tiny_refs):
    from rdawave import grid, solver

    before = (grid.norm_l2, solver.spla, solver.step)
    runner.run(tiny(WORKLOADS["plane-2d"]), 0, 0, True, tiny_refs["plane-2d"], probes=0)
    assert (grid.norm_l2, solver.spla, solver.step) == before


def test_missing_trace_target_makes_the_run_incorrect(tiny_workloads, monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "solver.step", ("solver:step", "solver:renamed_step"))
    lines, result = _run_main(["--workload", "record-dense", "--seconds", "0", "--trace", "1"])
    assert result["correct"] is False and result["failed"] == 0
    assert any("solver:renamed_step" in line for line in lines)


def test_state_that_outlives_an_invocation_fails_it(tiny_refs, monkeypatch):
    from rdawave import model

    registry = {}
    monkeypatch.setattr(model, "_registry", registry, raising=False)
    real_f = model.PowerNonlinearity.f

    def remembering_f(self, u):
        registry[len(registry)] = None
        return real_f(self, u)

    monkeypatch.setattr(model.PowerNonlinearity, "f", remembering_f)
    result = runner.run(tiny(WORKLOADS["record-dense"]), 0, 0, False,
                        tiny_refs["record-dense"], probes=0)
    assert result.failed_invocations == result.attempted == 1
    assert any("rdawave.model._registry" in p for p in result.problems)


def test_class_level_caches_are_cleared(monkeypatch):
    from rdawave import grid

    memo = functools.lru_cache(maxsize=None)(lambda key: key)
    monkeypatch.setattr(grid.Grid, "_memo", memo, raising=False)
    memo(1)
    assert program_state_sizes()["rdawave.grid.Grid._memo"] == 1
    clear_program_caches()
    assert memo.cache_info().currsize == 0


def test_input_sets_are_all_recorded():
    for name in WORKLOADS:
        recorded = checks.load_references(name)["seeds"]
        assert sorted(recorded, key=int) == [str(k) for k in range(INPUT_SETS)]
    assert WORKLOADS["accept-1d"].seeds(INPUT_SETS + 3) == WORKLOADS["accept-1d"].seeds(3)


def test_unrecorded_input_set_fails_every_invocation(tiny_refs):
    result = runner.run(tiny(WORKLOADS["record-dense"]), 1, 0, False,
                        tiny_refs["record-dense"], probes=0)
    assert result.failed_invocations == result.attempted
    assert any("no reference values recorded for input set 1" in p for p in result.problems)


def test_counts_repeat_between_two_traced_runs(tiny_refs):
    workload = tiny(WORKLOADS["accept-1d"])
    first, second = (runner.run(workload, 0, 0, True, tiny_refs["accept-1d"], probes=0)
                     for _ in range(2))
    assert first.correct and second.correct
    counts = runner.layer_counts(first.layers[0])
    assert counts == runner.layer_counts(second.layers[0])
    for name in ("solver.step.calls", "solver.factorizations", "grid.laplacian_matrix.calls"):
        assert counts[name] > 0, name


def test_corrupted_reference_makes_fail_frac_nonzero(tiny_refs):
    workload = tiny(WORKLOADS["record-dense"])
    refs = json.loads(json.dumps(tiny_refs["record-dense"]))
    clean = runner.run(workload, 0, 0, False, refs, probes=1)
    assert clean.failed_invocations == 0
    assert runner.end_to_end(clean)["fail_frac"]["value"] == 0.0

    key = next(k for k in refs["seeds"]["0"]["simulate"] if k.endswith(":E"))
    refs["seeds"]["0"]["simulate"][key] *= 1.0 + 1e-4
    corrupted = runner.run(workload, 0, 0, False, refs, probes=1)
    assert corrupted.failed_invocations == corrupted.attempted == 1
    assert runner.end_to_end(corrupted)["fail_frac"]["value"] > 0.0
    assert any(key in p for p in corrupted.problems)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([*BENCH["command"], "--workload", "accept-1d", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
