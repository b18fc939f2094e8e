"""Source checks that need no linter: every name a module of the package,
a test module or a demo imports at module level is used in that file."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
# __init__.py imports to re-export
MODULES = sorted(p for p in (REPO / "src" / "ergosum").glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*(REPO / "tests").glob("*.py"), *(REPO / "demos").glob("*.py")])
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
