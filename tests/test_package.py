"""Package surface: what each module exports is there to import and has a
caller, every function the benchmark's tracer wraps by name still exists,
the README's Python examples run, a run leaves no program state grown,
every cache is bounded and earns a hit, and scipy loads only with the first
`Stepper` that needs it."""
import ast
import contextlib
import importlib
import io
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import rdawave
from rdawave import cli

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmarks" / "rdabench" / "tracing.py"


def test_every_name_in_each_modules_all_exists():
    modules = [rdawave] + [importlib.import_module(f"rdawave.{info.name}")
                           for info in pkgutil.iter_modules(rdawave.__path__)]
    stale = [f"{mod.__name__}.{name}" for mod in modules
             for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert stale == []


def _trace_layers() -> dict:
    """The tracer's `LAYERS` table (layer -> "module:qualname" targets), read
    from its source without importing the benchmark."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in targets):
                return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACING}")


def test_every_trace_target_resolves():
    # a target the program lost makes a traced benchmark run incorrect; the
    # tracer wraps a method only where its class defines it, not inherits it
    missing = []
    for targets in _trace_layers().values():
        for target in targets:
            mod_name, qualname = target.split(":")
            obj = importlib.import_module(f"rdawave.{mod_name}")
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(obj, cls_name, None)
                found = cls is not None and meth in vars(cls)
            else:
                found = hasattr(obj, qualname)
            if not found:
                missing.append(target)
    assert missing == []
    # the shim that times the linear solve stands in for this module attribute
    assert hasattr(importlib.import_module("rdawave.solver"), "spla")


def test_every_exported_name_has_a_caller():
    # a name in a module's __all__ is read by another part of the program
    # (some module other than __init__ refers to it), wrapped by the tracer
    # or exported by the package; anything else is surface no subcommand needs
    used = set()
    for source in Path(rdawave.__file__).parent.glob("*.py"):
        if source.name != "__init__.py":
            for node in ast.walk(ast.parse(source.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    traced = {target for targets in _trace_layers().values() for target in targets}
    uncalled = []
    for info in pkgutil.iter_modules(rdawave.__path__):
        mod = importlib.import_module(f"rdawave.{info.name}")
        uncalled += [f"{info.name}.{name}" for name in getattr(mod, "__all__", ())
                     if name not in used and f"{info.name}:{name}" not in traced
                     and name not in rdawave.__all__]
    assert uncalled == []


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    # a name the README uses but the package lost fails here, not in a reader's shell
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": "__readme__"})
    capsys.readouterr()


def _namespaces():
    """(name, namespace) of every rdawave module, each class it defines and
    each module-level instance of an rdawave class."""
    for info in pkgutil.iter_modules(rdawave.__path__):
        mod = importlib.import_module(f"rdawave.{info.name}")
        yield mod.__name__, vars(mod)
        for attr, value in vars(mod).items():
            owner = value if isinstance(value, type) else type(value)
            if attr.startswith("__") or owner.__module__ != mod.__name__:
                continue
            if isinstance(value, type) or hasattr(value, "__dict__"):
                yield f"{mod.__name__}.{attr}", vars(value)


def _functools_caches() -> dict:
    """name -> functools cache, for each one bound in a program namespace."""
    return {f"{name}.{attr}": getattr(value, "__func__", value)
            for name, namespace in _namespaces() for attr, value in namespace.items()
            if hasattr(getattr(value, "__func__", value), "cache_clear")}


def _clear_functools_caches():
    for cache in _functools_caches().values():
        cache.cache_clear()


def _state_sizes() -> dict:
    return {f"{name}.{attr}": len(value) for name, namespace in _namespaces()
            for attr, value in namespace.items()
            if isinstance(value, (dict, list, set)) and not attr.startswith("__")}

# a 1-D n=32 config with the cubic f, valid for simulate and absorb
TINY_CONFIG = ("model.alpha = 1.0\nmodel.lambda = 1.0\ngrid.n = 32\ngrid.L = 10\n"
               "solver.dt = 0.01\nsolver.record_every = 2\npath.seeds = 0\n"
               "path.t_min = -1\nexperiment.tau_list = -0.25,-0.5,-1\nexperiment.t_end = 0.4\n"
               "experiment.k_list = 2,4\nexperiment.splits = 0.2:0.2\n")


def test_runs_leave_no_program_state_grown(tmp_path):
    # state that outlives an invocation would carry work over to the next one
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    _clear_functools_caches()
    before = _state_sizes()
    for i in range(2):
        for cmd in ("simulate", "absorb", "tails", "pullback", "cocycle"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([cmd, "--config", str(cfg), "--out", str(tmp_path / f"o{i}"),
                                 "--deterministic"]) == 0
    _clear_functools_caches()
    after = _state_sizes()
    assert {k: (before.get(k, 0), n) for k, n in after.items() if n > before.get(k, 0)} == {}


def test_every_cache_is_bounded_and_earns_a_hit(tmp_path):
    # each invocation starts with the caches empty, as a fresh `rda-wave` does;
    # a cache that no invocation hits only holds memory
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    caches = _functools_caches()
    hits = dict.fromkeys(caches, 0)
    for cmd in ("simulate", "absorb", "tails", "pullback", "cocycle"):
        _clear_functools_caches()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([cmd, "--config", str(cfg), "--out", str(tmp_path / "o"),
                             "--deterministic"]) == 0
        for name, cache in caches.items():
            hits[name] += cache.cache_info().hits
    assert caches
    assert [name for name, cache in caches.items() if cache.cache_info().maxsize is None] == []
    assert [name for name, n in hits.items() if n == 0] == []


def fresh_env() -> dict:
    """The environment for a fresh interpreter that imports this checkout's
    rdawave."""
    src = str(Path(rdawave.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}


def test_solver_spla_resolves_to_scipy_in_a_fresh_interpreter():
    # the tracer's shim replaces this attribute; importing rdawave.solver
    # does not load it, so it must resolve on first access.  The solver
    # calls only the layers below it: it loads no `energy`.
    script = """
import sys
import rdawave.solver
assert "scipy.sparse.linalg" not in sys.modules
assert "rdawave.energy" not in sys.modules
assert hasattr(rdawave.solver, "spla")
import scipy.sparse.linalg
assert rdawave.solver.spla is scipy.sparse.linalg
"""
    done = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_scipy_fft_loads_only_for_sine_coordinate_runs(tmp_path):
    """In a fresh interpreter: importing the CLI, parsing a 1-D cubic and a
    2-D config, building their models and paths, `check` on an empty --out
    and a config error load no scipy module; a 1-D cubic `simulate` (a march
    on the nodes) loads SuperLU but not scipy.fft; a 1-D linear `evolve` (a
    march in sine coordinates) loads scipy.fft."""
    cfgs = {"line": TINY_CONFIG,
            "plane": TINY_CONFIG.replace("grid.n = 32\n", "grid.dim = 2\ngrid.n = 15\n"),
            "bad": TINY_CONFIG.replace("k_list = 2,4", "k_list = 0,2")}
    for name, text in cfgs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    (tmp_path / "empty").mkdir()
    script = f"""
import contextlib, io, os, sys
import numpy as np
import rdawave.cli
from rdawave.config import parse_config
from rdawave.paths import generate_path

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

os.chdir({str(tmp_path)!r})
for name in ("line", "plane"):
    cfg = parse_config(open(name + ".cfg").read())
    cfg.build_model()
    for seed in cfg.seeds:
        generate_path(seed, cfg["path.t_min"], 0.0, cfg.dt_path)
assert scipy_modules() == [], scipy_modules()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert rdawave.cli.main(["check", "--config", "line.cfg", "--out", "empty"]) == 2
    assert rdawave.cli.main(["simulate", "--config", "bad.cfg", "--out", "o"]) == 2
assert scipy_modules() == [], scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    assert rdawave.cli.main(["simulate", "--config", "line.cfg", "--out", "o",
                             "--deterministic"]) == 0
assert "scipy.sparse.linalg" in sys.modules, "1-D cubic simulate"
assert "scipy.fft" not in sys.modules, "1-D cubic simulate"
from rdawave import Grid, SolveSpec, evolve, make_model
from rdawave.model import PowerNonlinearity
model = make_model(Grid(1, 10.0, 32), nonlin=PowerNonlinearity(a=0.0))
zero = np.zeros(model.grid.shape)
evolve(zero, zero, 0.0, 0.1, generate_path(0, -1.0, 1.0, 0.01), model, SolveSpec())
assert "scipy.fft" in sys.modules, "1-D linear evolve"
"""
    done = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr

