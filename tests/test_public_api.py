"""The package's public names: each is declared once, in the ``__all__`` of
the module that defines it, and every ``__all__`` entry resolves.  Every name
a module imports is read by it."""
from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil

import pytest

import dgquery

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(dgquery.__path__))


def unresolved(module) -> list[str]:
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def imported_names(module) -> set[str]:
    """The names the module's import statements bind."""
    nodes = ast.walk(ast.parse(inspect.getsource(module)))
    return {
        (alias.asname or alias.name).split(".")[0]
        for node in nodes
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def test_one_import_path_per_name():
    modules = [importlib.import_module(f"dgquery.{name}") for name in SUBMODULES]
    # the package index re-exports nothing: a name is imported from its module
    assert {name for name in vars(dgquery) if not name.startswith("_")} <= set(SUBMODULES)
    for module in modules:
        assert set(getattr(module, "__all__", ())) & imported_names(module) == set(), module.__name__


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    # a stale entry breaks only ``from dgquery.<name> import *``
    assert unresolved(importlib.import_module(f"dgquery.{name}")) == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_no_unused_imports(name):
    # names a module re-exports sit in ``__all__``, which
    # test_one_import_path_per_name keeps apart from the imported ones
    module = importlib.import_module(f"dgquery.{name}")
    nodes = ast.walk(ast.parse(inspect.getsource(module)))
    read = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # ``from __future__ import annotations`` binds a name no code reads
    assert imported_names(module) - read - {"annotations"} == set()
