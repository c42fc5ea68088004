"""Checks on the package source itself."""

import ast
import doctest
import importlib
from pathlib import Path

import quiver_virasoro

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quiver_virasoro"


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips asserts, so every check must raise explicitly
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_docstring_examples_run():
    attempted = 0
    for path in sorted(PACKAGE.glob("*.py")):
        name = "" if path.stem == "__init__" else f".{path.stem}"
        module = importlib.import_module(f"quiver_virasoro{name}")
        result = doctest.testmod(module)
        assert result.failed == 0, path.name
        attempted += result.attempted
    assert attempted >= 1


def test_star_import_resolves_every_public_name():
    # a name left in __all__ after its definition goes fails here
    namespace = {}
    exec("from quiver_virasoro import *", namespace)
    assert set(quiver_virasoro.__all__) <= set(namespace)
