"""Every exported name resolves: no ``__all__`` lists a deleted API."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import gridpipe

MODULES = ["gridpipe"] + [
    f"gridpipe.{info.name}" for info in pkgutil.iter_modules(gridpipe.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
