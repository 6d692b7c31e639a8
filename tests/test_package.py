"""Package surface: what each module exports is there to import, and every
function the benchmark's tracer wraps by name still exists."""
import ast
import importlib
import pkgutil
from pathlib import Path

import rdawave

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "rdabench" / "tracing.py"


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
