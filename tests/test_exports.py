"""Every exported name resolves."""

import importlib
import pkgutil

import pytest

import zneboundary

MODULES = sorted(m.name for m in pkgutil.iter_modules(zneboundary.__path__))


@pytest.mark.parametrize("module", ["zneboundary"] + [f"zneboundary.{m}" for m in MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}"
