"""The docstring examples of every traintrack module run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import traintrack

MODULES = sorted(info.name for info in pkgutil.iter_modules(traintrack.__path__, "traintrack."))


@pytest.mark.parametrize("name", ["traintrack"] + MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name), report=False)
    assert result.failed == 0, "%d of %d examples failed in %s" % (
        result.failed, result.attempted, name)


def test_the_examples_are_found():
    attempted = sum(
        doctest.testmod(importlib.import_module(name), report=False).attempted
        for name in MODULES
    )
    assert attempted >= 5
