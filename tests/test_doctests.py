import doctest
import importlib
import pkgutil

import pytest

import valperm

MODULES = ["valperm"] + [f"valperm.{m.name}" for m in pkgutil.iter_modules(valperm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"
