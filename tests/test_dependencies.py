"""gaugekit depends on numpy alone, and its tests add only pytest and
hypothesis: every import of the package and of the tests must name the
standard library, one of those, or a module of the package or the tests.
The package runs the source it generates through one function,
`timexpr._define`: no other code calls exec, eval or compile.  And no
function, method, class or module-level table of the package reaches itself
through the names its code uses (a bare name, `module.name` for a module of
the package, `self.name` in a method), so that an expression or a matrix of
any depth passes through all of them; the one exception is `cli.dumps`,
whose depth is the nesting of the JSON it writes.  Calls through another
object's attribute (`self.base.value`) and through operators are not
followed.  Every name that a module of the package exports in `__all__`
resolves, so that a deletion leaves no stale export behind.  A closed-form
curve's inverse table, `_inverse`, is used only by `ClosedFormCurve` and by
closed-form emission, `gauge._closed_form_table`: no numeric inverse, and no
direct right-hand side that validation compares against, reads it."""

import ast
import importlib
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


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _bindings(tree: ast.Module, mod: str) -> dict:
    """Module-level names of `tree` -> the qualified name each stands for:
    "mod.name" for its own functions, classes and assignments and for a
    name imported from a module of the package, "mod." for such a module."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                names[alias.asname or alias.name] = (
                    f"{alias.name}." if node.module is None else f"{node.module}.{alias.name}")
        elif isinstance(node, (*_FUNCS, ast.ClassDef)):
            names[node.name] = f"{mod}.{node.name}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, f"{mod}.{t.id}") for t in targets if isinstance(t, ast.Name))
    return names


def _call_graph(paths) -> dict:
    """The call graph of the modules `paths`, one package: qualified name ->
    the names its definition uses, in nested functions too, whether it calls
    them or passes them on.  Nodes are module-level functions and
    assignments ("mod.f"), methods ("mod.Class.m") and classes, which reach
    their __init__ and __post_init__.  A body reaches a name by a bare name
    bound at module level, by `module.name` for a module of the package, and
    by `self.name` or `cls.name` in a method: every method of that name in
    the class's descendants and their ancestors, any of which may answer."""
    graph, bases, uses = {}, {}, {}
    for path in paths:
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _bindings(tree, mod)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                uses.update((f"{mod}.{t.id}", (node.value, names, None))
                            for t in targets if isinstance(t, ast.Name))
            elif isinstance(node, _FUNCS):
                uses[f"{mod}.{node.name}"] = (node, names, None)
            elif isinstance(node, ast.ClassDef):
                cls = f"{mod}.{node.name}"
                bases[cls] = {names[b.id] for b in node.bases
                              if isinstance(b, ast.Name) and b.id in names}
                graph[cls] = {f"{cls}.__init__", f"{cls}.__post_init__"}
                for item in node.body:
                    if isinstance(item, _FUNCS):
                        uses[f"{cls}.{item.name}"] = (item, names, cls)
    children = {cls: {c for c, bs in bases.items() if cls in bs} for cls in bases}

    def lineage(cls, step):
        """cls and every class reached from it by `step` repeatedly."""
        found, stack = set(), [cls]
        while stack:
            c = stack.pop()
            if c not in found:
                found.add(c)
                stack += step.get(c, ())
        return found

    for name, (node, names, cls) in uses.items():
        family = ({a for d in lineage(cls, children) for a in lineage(d, bases)}
                  if cls else set())
        edges = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and n.id in names:
                edges.add(names[n.id])
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                owner = n.value.id
                if names.get(owner, "").endswith("."):
                    edges.add(names[owner] + n.attr)
                elif owner in ("self", "cls"):
                    edges.update(f"{c}.{n.attr}" for c in family)
        graph[name] = edges
    return {name: edges & graph.keys() for name, edges in graph.items()}


def _self_reaching(paths) -> set:
    """The nodes of `_call_graph(paths)` that reach themselves, directly or
    through other nodes."""
    graph = _call_graph(paths)
    found = set()
    for start in graph:
        seen, stack = set(), list(graph[start])
        while stack:
            name = stack.pop()
            if name == start:
                found.add(start)
                break
            if name not in seen:
                seen.add(name)
                stack += graph[name]
    return found


def test_only_cli_dumps_recurses():
    assert _self_reaching(SOURCES) == {"cli.dumps"}


def test_the_recursion_guard_sees_cycles_through_other_functions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def even(n):\n    return n == 0 or odd(n - 1)\n"
                     "def odd(n):\n    def step():\n        return even(n - 1)\n"
                     "    return n != 0 and step()\n"
                     "def fact(n):\n    return 1 if n < 2 else n * fact(n - 1)\n"
                     "def parity(n):\n    return even(n)\n"
                     "def loop(n):\n    while n:\n        n -= 1\n    return n\n")
    assert _self_reaching([probe]) == {"probe.even", "probe.odd", "probe.fact"}


def test_the_recursion_guard_sees_methods_classes_tables_and_other_modules(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import b as bee\n"
        "from .b import walk\n"
        "class Node:\n"
        "    def size(self):\n        return self.total()\n"
        "    def total(self):\n        return 1\n"
        "    def depth(self):\n        return self.child.depth() + 1\n"
        "class Tree(Node):\n"
        "    def __init__(self, n):\n        self.kids = [Tree(n - 1)] if n else []\n"
        "    def total(self):\n        return self.size() + bee.count(self)\n"
        "def start(x):\n    return walk(x)\n"
        "RULES = {'start': start}\n")
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "def walk(x):\n    return a.RULES['start'](x)\n"
        "def count(node):\n    return len(node.kids)\n")
    # Node.depth recurses through another object's attribute, which the
    # guard does not follow
    assert _self_reaching([tmp_path / "a.py", tmp_path / "b.py"]) == {
        "a.Node.size", "a.Tree.total",  # through self, answered by a subclass
        "a.Tree", "a.Tree.__init__",  # through the class it constructs
        "a.start", "a.RULES", "b.walk",  # through another module and a table
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    module = importlib.import_module(
        "gaugekit" if path.stem == "__init__" else f"gaugekit.{path.stem}")
    assert module.__all__
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _inverse_table_uses(path: Path) -> set:
    """The module-level class or function ("mod.name", "mod." for other
    module-level code) around every `._inverse` attribute in `path`."""
    found = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        name = top.name if isinstance(top, (*_FUNCS, ast.ClassDef)) else ""
        if any(isinstance(n, ast.Attribute) and n.attr == "_inverse" for n in ast.walk(top)):
            found.add(f"{path.stem}.{name}")
    return found


def test_only_closed_form_emission_reads_the_inverse_table():
    uses = set().union(*(_inverse_table_uses(path) for path in SOURCES))
    assert uses == {"matcurve.ClosedFormCurve", "gauge._closed_form_table"}


def test_the_guard_sees_a_direct_rhs_read_the_inverse_table(tmp_path):
    source = (ROOT / "src" / "gaugekit" / "gauge.py").read_text(encoding="utf-8")
    anchor = "    return lambda t, y: _direct_at("
    assert source.count(anchor) == 1
    probe = tmp_path / "gauge.py"
    probe.write_text(source.replace(anchor, "    A._inverse(0.0)\n" + anchor))
    assert _inverse_table_uses(probe) == {"gauge._closed_form_table", "gauge.transform_rhs"}
