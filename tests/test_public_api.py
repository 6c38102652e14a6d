"""The package's public names: every ``__all__`` entry resolves."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import dgquery

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(dgquery.__path__))


def unresolved(module) -> list[str]:
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_package_all_resolves():
    assert dgquery.__all__
    assert unresolved(dgquery) == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    # a stale entry breaks only ``from dgquery.<name> import *``
    assert unresolved(importlib.import_module(f"dgquery.{name}")) == []
