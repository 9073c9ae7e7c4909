"""Every name in the package's and each module's ``__all__`` resolves once."""
import importlib
import pkgutil

import pytest

import diskclass

# __main__ runs the CLI on import
MODULES = [m.name for m in pkgutil.iter_modules(diskclass.__path__)
           if m.name != "__main__"]


@pytest.mark.parametrize("name", ["diskclass"] + [f"diskclass.{m}" for m in MODULES])
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [n for n in exported if not hasattr(module, n)] == [], name

