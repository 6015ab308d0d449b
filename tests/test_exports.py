"""Every name a public module exports in __all__ exists."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["voltgame", "voltgame.equilibrium"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
