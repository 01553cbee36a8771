"""Export lists: every name a module lists in __all__ is bound in it, so a
deleted public name cannot linger in an export list; and each entry point
imports only what its work needs."""
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize("module", ["fracsum", "fracsum.summands", "fracsum.cli"])
def test_entry_points_import_neither_catalog_nor_exact_rationals(module):
    # a sum needs neither the identity catalog nor fractions (which imports
    # decimal); a fresh interpreter has imported nothing of fracsum yet
    code = (f"import json, sys, {module}\n"
            "print(json.dumps([m for m in ('fracsum.catalog', 'fractions', 'decimal')"
            " if m in sys.modules]))")
    src = str(Path(fracsum.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    assert json.loads(out.stdout) == []


def test_catalog_names_resolve_on_first_use():
    from fracsum import catalog

    assert fracsum.run_all is catalog.run_all
    assert set(fracsum.__all__) <= set(dir(fracsum))
    with pytest.raises(AttributeError):
        fracsum.no_such_name  # noqa: B018
