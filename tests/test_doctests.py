"""The examples in the docstrings of the package are run as tests."""

import doctest
import importlib
import pkgutil

import divaria


def test_every_docstring_example_holds():
    failed = attempted = 0
    for info in pkgutil.iter_modules(divaria.__path__):
        module = importlib.import_module(f"divaria.{info.name}")
        result = doctest.testmod(module)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted > 0  # some examples ran, so the test checked something
