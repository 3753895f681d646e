import importlib
import pkgutil

import pytest

import iskak

MODULES = ["iskak"] + [f"iskak.{m.name}" for m in pkgutil.iter_modules(iskak.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    # a name removed from a module but left in its __all__ breaks star imports
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
