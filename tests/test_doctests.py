import doctest
import importlib
import pkgutil

import surfclass


def test_doctests():
    attempted = 0
    for info in pkgutil.iter_modules(surfclass.__path__):
        mod = importlib.import_module(f"surfclass.{info.name}")
        result = doctest.testmod(mod)
        assert result.failed == 0, info.name
        attempted += result.attempted
    # surfclass.edgeword alone carries more than ten examples
    assert attempted >= 10
