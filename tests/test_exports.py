"""Export lists: every name a module lists in __all__ is bound in it, so a
deleted public name cannot linger in an export list."""
import importlib
import pkgutil

import pytest

import fracsum

MODULES = ["fracsum"] + [
    f"fracsum.{m.name}" for m in pkgutil.iter_modules(fracsum.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
