"""Every exported name resolves, once, in the package and each module.

Deleting a public name touches its module, that module's ``__all__`` and
the package's imports and ``__all__``; a stale entry in any of them
fails here instead of at ``from citom import *``.
"""

from __future__ import annotations

import importlib
import pkgutil
from collections import Counter

import pytest

import citom

MODULES = ["citom"] + [f"citom.{info.name}" for info in pkgutil.iter_modules(citom.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_duplicates(name: str) -> None:
    module = importlib.import_module(name)
    exported = module.__all__
    assert [n for n, count in Counter(exported).items() if count > 1] == []
    assert [n for n in exported if not hasattr(module, n)] == []
