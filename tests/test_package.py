"""Package surface: what each module exports is there to import."""
import importlib
import pkgutil

import rdawave


def test_every_name_in_each_modules_all_exists():
    modules = [rdawave] + [importlib.import_module(f"rdawave.{info.name}")
                           for info in pkgutil.iter_modules(rdawave.__path__)]
    stale = [f"{mod.__name__}.{name}" for mod in modules
             for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert stale == []
