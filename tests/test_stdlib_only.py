"""The runtime imports nothing but the standard library and itself, and
no handler in it swallows every fault.

Each module of the package is parsed, not imported, so that a module
whose third-party import would fail still shows up by name.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wearocr"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_top_level_names(source: str) -> set[str]:
    """The first dotted part of every absolute import in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def catch_all_handlers(source: str) -> list[int]:
    """The line of every handler in ``source`` that catches every fault.

    That is a bare ``except``, or one naming ``Exception`` or
    ``BaseException``, alone or in a tuple.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(
                kind is None or (isinstance(kind, ast.Name) and kind.id in {"Exception", "BaseException"})
                for kind in caught
            ):
                lines.append(node.lineno)
    return lines


def test_every_module_is_found():
    assert {path.stem for path in MODULES} >= {"__init__", "replay", "wire"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_the_standard_library(path):
    names = imported_top_level_names(path.read_text(encoding="utf-8"))
    assert sorted(names - sys.stdlib_module_names - {"wearocr"}) == []


def test_a_third_party_import_is_caught():
    source = "import json\nfrom . import wire\nfrom numpy.linalg import norm\nimport yaml as y\n"
    names = imported_top_level_names(source)
    assert names - sys.stdlib_module_names == {"numpy", "yaml"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_catch_all_handler(path):
    assert catch_all_handlers(path.read_text(encoding="utf-8")) == []


def test_a_catch_all_handler_is_caught():
    source = (
        "try:\n    f()\nexcept ValueError:\n    pass\n"
        "try:\n    f()\nexcept (KeyError, Exception) as exc:\n    pass\n"
        "try:\n    f()\nexcept BaseException:\n    raise\n"
        "try:\n    f()\nexcept:\n    pass\n"
        "try:\n    f()\nexcept struct.error:\n    pass\n"
    )
    assert catch_all_handlers(source) == [7, 11, 15]
