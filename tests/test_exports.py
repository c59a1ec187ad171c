"""Every name a module exports resolves, so a deleted name cannot linger
in an export list."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import rngaudit

MODULES = ["rngaudit"] + [f"rngaudit.{m.name}" for m in pkgutil.iter_modules(rngaudit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names what it does not define: {missing}"
