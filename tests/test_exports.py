import importlib
import pkgutil

import pytest

import tilediff

MODULES = ["tilediff"] + [f"tilediff.{m.name}"
                          for m in pkgutil.iter_modules(tilediff.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    """Every name a module exports in ``__all__`` exists on it, so a deleted
    function cannot leave a stale entry behind."""
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
