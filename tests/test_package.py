"""The package's exports: every name in an ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import ccme

MODULES = sorted(m.name for m in pkgutil.iter_modules(ccme.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", ["ccme", *(f"ccme.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_star_import():
    namespace: dict = {}
    exec("from ccme import *", namespace)
    assert set(ccme.__all__) <= set(namespace)
