"""The runtime imports nothing but the standard library and itself.

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
