"""Every name a module exports exists, once.

A name deleted from a module but left in its ``__all__`` breaks only
``from memwave.<module> import *``, which no other test does; a missing
attribute is exactly what makes that import fail.
"""

import importlib
import pkgutil
from collections import Counter

import pytest

import memwave

MODULES = ["memwave"] + [
    f"memwave.{info.name}" for info in pkgutil.iter_modules(memwave.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert [n for n, count in Counter(exported).items() if count > 1] == []
    assert [n for n in exported if not hasattr(module, n)] == []
