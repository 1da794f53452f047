"""gaugekit depends on numpy alone, and its tests add only pytest and
hypothesis: every import of the package and of the tests must name the
standard library, one of those, or a module of the package or the tests."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gaugekit").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
PACKAGE = set(sys.stdlib_module_names) | {"numpy", "gaugekit"}
TEST_EXTRA = {"pytest", "hypothesis"} | {p.stem for p in TESTS}


def _imported(path: Path) -> set:
    """Top-level names of the absolute imports in `path`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_are_numpy_and_the_standard_library(path):
    allowed = PACKAGE | (TEST_EXTRA if path in TESTS else set())
    assert _imported(path) - allowed == set()


def test_the_guard_sees_scipy_and_sympy(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import scipy.linalg\nfrom sympy import Symbol\nfrom . import x\n")
    assert _imported(probe) - PACKAGE == {"scipy", "sympy"}
