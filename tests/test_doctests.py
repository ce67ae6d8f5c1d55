"""The examples in the module docstrings, run as part of the suite."""

import doctest
import importlib
import pkgutil

import pytest

import weightfilt

MODULES = sorted(info.name for info in pkgutil.iter_modules(weightfilt.__path__, "weightfilt."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
