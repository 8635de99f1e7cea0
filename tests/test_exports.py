"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import linkcensus

MODULES = ["linkcensus"] + [f"linkcensus.{info.name}"
                            for info in pkgutil.iter_modules(linkcensus.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__
    for export in module.__all__:
        assert hasattr(module, export), f"{name}.__all__ lists missing {export!r}"
