"""Every exported name resolves, once, in the package and each module.

A public name is declared once, in its module's ``__all__``: ``citom``
re-exports those lists whole, except ``io``, whose three republished
names the package imports and lists itself.  Deleting a public name
touches its module and that module's ``__all__``; a stale entry fails
here instead of at ``from citom import *``.  The duplicate check on
``citom.__all__`` is what catches two modules exporting the same name,
which the package's wildcard imports would let the later one rebind.

A rule that two modules share, such as the distribution check, lives
under a public name in its home module: no citom module imports an
underscore-prefixed name from another.

The benchmark's tracer wraps citom functions and methods by name and
drops the metric of a name that no longer resolves, so deleting or
moving one of them would pass every other test and still empty a
benchmark metric.  ``test_tracer_names_resolve`` resolves them here.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import citom

MODULES = ["citom"] + [f"citom.{info.name}" for info in pkgutil.iter_modules(citom.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_duplicates(name: str) -> None:
    module = importlib.import_module(name)
    exported = module.__all__
    assert [n for n, count in Counter(exported).items() if count > 1] == []
    assert [n for n in exported if not hasattr(module, n)] == []


def test_no_module_imports_a_private_name_from_another() -> None:
    private = []
    for path in sorted(Path(citom.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "citom"
            ):
                private += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert private == []


# Names the tracer lists that no longer exist in citom.
TRACER_ABSENT = {
    "citom.agents.MatchingPenniesPredictor.choose",
    "citom.agents.DeltaRuleLearner.choose",
}


def test_tracer_names_resolve() -> None:
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # defines the tables; installs nothing
    unresolved = set()
    for _, module, attributes, _ in tracing.SPANS + tracing.COUNTED:
        owner = importlib.import_module(module)
        for attribute in attributes.split("."):
            owner = getattr(owner, attribute, None)
        if owner is None:
            unresolved.add(f"{module}.{attributes}")
    assert unresolved <= TRACER_ABSENT
