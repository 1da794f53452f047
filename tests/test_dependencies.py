"""gaugekit depends on numpy alone, and its tests add only pytest and
hypothesis: every import of the package and of the tests must name the
standard library, one of those, or a module of the package or the tests.
The package runs the source it generates through one function,
`timexpr._define`: no other code calls exec, eval or compile.  And no
function of `timexpr` recurses, so that an expression of any depth passes
through all of them."""

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


def _source_runs(path: Path) -> set:
    """(enclosing function, builtin) of every call of exec, eval or compile
    by its bare name in `path`; "" stands for module level."""
    found = set()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                    and child.func.id in {"exec", "eval", "compile"}:
                found.add((func, child.func.id))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else func)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_generated_source_runs_through_timexpr_define_alone():
    runs = {(path.stem, *run) for path in SOURCES for run in _source_runs(path)}
    assert runs == {("timexpr", "_define", "exec"), ("timexpr", "_define", "compile")}


def test_the_exec_guard_sees_bare_calls_alone(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import re\nR = re.compile('x')\nexec('y = 1')\n"
                     "def f(s):\n    def g():\n        return eval(s)\n"
                     "    return compile(s, '<s>', 'eval'), g\n")
    assert _source_runs(probe) == {("", "exec"), ("g", "eval"), ("f", "compile")}


def _self_reaching(path: Path) -> set:
    """Module-level functions of `path` that reach themselves in its call
    graph, directly or through other module-level functions.  A function's
    edges go to every module-level function whose name its body uses, in
    nested functions too, whether it calls it or passes it on."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    funcs = {node.name: node for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    uses = {name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in funcs}
            for name, node in funcs.items()}
    found = set()
    for start in funcs:
        seen, stack = set(), list(uses[start])
        while stack:
            name = stack.pop()
            if name == start:
                found.add(start)
                break
            if name not in seen:
                seen.add(name)
                stack += uses[name]
    return found


def test_no_timexpr_function_recurses():
    assert _self_reaching(ROOT / "src" / "gaugekit" / "timexpr.py") == set()


def test_the_recursion_guard_sees_cycles_through_other_functions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def even(n):\n    return n == 0 or odd(n - 1)\n"
                     "def odd(n):\n    def step():\n        return even(n - 1)\n"
                     "    return n != 0 and step()\n"
                     "def fact(n):\n    return 1 if n < 2 else n * fact(n - 1)\n"
                     "def parity(n):\n    return even(n)\n"
                     "def loop(n):\n    while n:\n        n -= 1\n    return n\n")
    assert _self_reaching(probe) == {"even", "odd", "fact"}
