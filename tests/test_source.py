"""Source checks that need no linter: every name a module of the package,
a test module or a demo imports at module level is used in that file, and
every function and class a module of the package defines at module level,
and every undecorated method of its classes, is read by name in another
of the package's modules (not __init__.py, which only re-exports), a demo
or tests/test_acceptance.py. Unit tests do not count as readers, so no
helper stays in the package for them alone."""

import ast
from functools import cache
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
# __init__.py imports to re-export
MODULES = sorted(p for p in (REPO / "src" / "ergosum").glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((REPO / "demos").glob("*.py"))
SCRIPTS = sorted([*(REPO / "tests").glob("*.py"), *DEMOS])
# package modules by name, tests and demos by directory and name
IDS = [p.stem for p in MODULES] + [f"{p.parent.name}/{p.stem}" for p in SCRIPTS]


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no name in the
    module reads. Names inside quoted annotations are not seen: the
    package's modules import annotations from __future__ instead."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_found():
    src = ("import os\nimport numpy as np\nfrom a import b, c as d\n"
           "import x.y\nprint(b, np.zeros(1), x.y)\n")
    assert unused_imports(src) == ["os", "d"]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=IDS)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def names_read(nodes) -> set[str]:
    """The names that Name and Attribute nodes under `nodes` read."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


@cache
def file_reads(path: Path) -> frozenset:
    return frozenset(names_read([ast.parse(path.read_text(encoding="utf-8"))]))


def unread_definitions(source: str, read_elsewhere) -> list[str]:
    """Module-level functions and classes of the module, and the methods of
    its classes that no decorator marks (a classmethod constructor, a
    property) and whose names are not dunders, that no name reads, neither
    in `read_elsewhere` nor in the module outside their own definition (a
    function that only calls itself is unread). A method is named
    Class.method."""
    body = ast.parse(source).body
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    # each definition with the module's nodes outside it
    defs = [(d.name, d, [n for n in body if n is not d])
            for d in body if isinstance(d, (*funcs, ast.ClassDef))]
    defs += [(f"{c.name}.{d.name}", d, [*(n for n in body if n is not c),
                                        *(k for k in c.body if k is not d)])
             for c in body if isinstance(c, ast.ClassDef)
             for d in c.body if isinstance(d, funcs) and not d.decorator_list
             and not (d.name.startswith("__") and d.name.endswith("__"))]
    return [name for name, d, rest in defs
            if d.name not in read_elsewhere and d.name not in names_read(rest)]


def test_unread_definitions_are_found():
    src = ("def a():\n    return a()\n\ndef b():\n    pass\n\n"
           "class C:\n    pass\n\nclass D:\n    pass\n\nx = b\n")
    assert unread_definitions(src, {"C"}) == ["a", "D"]
    src = ("class E:\n    def __init__(self):\n        self.f()\n\n"
           "    def f(self):\n        pass\n\n    def g(self):\n        return self.g()\n\n"
           "    def h(self):\n        pass\n\n    @property\n    def k(self):\n        pass\n\n"
           "x = E\n")
    assert unread_definitions(src, {"h"}) == ["E.g"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_defines_nothing_unread(path):
    others = [p for p in [*MODULES, *DEMOS, REPO / "tests" / "test_acceptance.py"]
              if p != path]
    read_elsewhere = set().union(*map(file_reads, others))
    assert unread_definitions(path.read_text(encoding="utf-8"), read_elsewhere) == []


# the modules that may call BLAS or LAPACK
BLAS_USERS = {"scaling_fit"}


def blas_uses(source: str) -> list[str]:
    """The matrix products (@, @=) and the dot, matmul and linalg names
    (np.dot, x.dot, np.matmul, np.linalg, an import of linalg) that the
    source uses, in line order, each as the name or operator seen."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in ("dot", "matmul", "linalg"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            if any("linalg" in name.split(".") for name in names):
                found.append((node.lineno, "linalg"))
    return [name for _, name in sorted(found)]


def test_blas_uses_are_found():
    src = ("import numpy.linalg\nfrom numpy import linalg\nx = a @ b\nx @= a\n"
           "y = np.dot(a, b) + a.dot(b) + np.matmul(a, b)\nz = np.linalg.norm(a)\n"
           "@cache\ndef f(): return a * b\n")
    assert blas_uses(src) == ["linalg", "linalg", "@", "@", "dot", "dot", "matmul",
                              "linalg"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_the_fits_reach_blas(path):
    """No module but those in BLAS_USERS uses a matrix product or numpy's
    linalg, so every sum, series, slope and hull that reaches an output
    has the same bits whatever the BLAS build and its thread count. ROADMAP
    item 2a takes scaling_fit off BLAS_USERS when its fits stop solving
    through LAPACK."""
    if path.stem not in BLAS_USERS:
        assert blas_uses(path.read_text(encoding="utf-8")) == []


def package_imports(source: str) -> list[str]:
    """module.name for every name that an import anywhere in the source,
    nested ones too, takes from the ergosum package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "ergosum"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "ergosum"):
            found += [f"{node.module}.{a.name}" for a in node.names]
    return found


def test_oracles_take_only_raw64_from_the_package():
    """The reference implementations stay independent of the code they
    check: tests/oracles.py takes nothing from ergosum but the
    counter-based draws of _rng.raw64."""
    src = ("import os, ergosum.weights\nfrom ergosum import gen_weights\n"
           "def f():\n    from ergosum._rng import raw64\n")
    assert package_imports(src) == ["ergosum.weights", "ergosum.gen_weights",
                                    "ergosum._rng.raw64"]
    oracles = (REPO / "tests" / "oracles.py").read_text(encoding="utf-8")
    assert set(package_imports(oracles)) <= {"ergosum._rng.raw64"}


def layer_function_names() -> list[str]:
    """The keys of perfbench/spans.py's LAYER_FUNCTIONS, read from its
    source, so this needs nothing that perfbench imports."""
    tree = ast.parse((REPO / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets):
            return [key.value for key in node.value.keys]
    raise AssertionError("perfbench/spans.py assigns no LAYER_FUNCTIONS")


def test_harness_binds_and_reads_every_traced_name():
    """The traced benchmark pass replaces each LAYER_FUNCTIONS name on
    ergosum.harness by a timing wrapper, so the harness must bind each one
    at module level and look it up by name outside its import or
    definition; a name dropped from the harness would pass every other
    test and crash that pass. Drop this test together with spans.py."""
    names = layer_function_names()
    body = ast.parse((REPO / "src" / "ergosum" / "harness.py").read_text(encoding="utf-8")).body
    imports = (ast.Import, ast.ImportFrom)
    bound = {a.asname or a.name for n in body if isinstance(n, imports) for a in n.names}
    bound |= {n.name for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert names and [n for n in names if n not in bound] == []

    def reads(name):
        rest = [n for n in body if not isinstance(n, imports) and getattr(n, "name", None) != name]
        return any(isinstance(x, ast.Name) and x.id == name for n in rest for x in ast.walk(n))
    assert [n for n in names if not reads(n)] == []
