"""Every name a module imports is used in that module, and every function,
method and class the package defines is named somewhere else.

Both are stdlib-ast scans. The import scan covers src/ and tests/: package
__init__.py files are skipped (their imports are the public re-exports) and
so is `from __future__`. A name counts as used when it appears as an
identifier anywhere in the module or in its __all__.

The definition scan takes every def and class under src/robustcast, dunder
methods aside, and fails on one whose name appears nowhere in src/ or
tests/ outside its own body, as an identifier, an attribute or an imported
name. Names are matched by spelling alone, so a method shares its uses with
any attribute of the same name.
"""
import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALL_SOURCES = sorted(path for folder in ("src", "tests") for path in (ROOT / folder).rglob("*.py"))
SOURCES = [path for path in ALL_SOURCES if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_name_and_keeps_used_ones():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from pathlib import Path, PurePath\n"
        "__all__ = ['PurePath']\n"
        "print(np.pi, Path)\n"
    )
    assert unused_imports(source) == ["line 2: os"]


def definitions(source: str) -> list[tuple[int, str]]:
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


class _Names(ast.NodeVisitor):
    """Counts the names a module mentions, skipping a def's or class's
    mentions of itself inside its own body (recursion, self-reference)."""

    def __init__(self):
        self.enclosing: list[str] = []
        self.counts: Counter = Counter()

    def visit_FunctionDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def _mention(self, name: str) -> None:
        if name not in self.enclosing:
            self.counts[name] += 1

    def visit_Name(self, node):
        self._mention(node.id)

    def visit_Attribute(self, node):
        self._mention(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._mention(node.name.split(".")[-1])


def dead_definitions(defining: dict[str, str], naming: list[str]) -> list[str]:
    """`file:line name` of each definition in the `defining` sources (file
    name -> source) that no source in `naming` mentions."""
    names = _Names()
    for source in naming:
        names.visit(ast.parse(source))
    return [
        f"{file}:{line} {name}"
        for file, source in defining.items()
        for line, name in definitions(source)
        if not names.counts[name]
    ]


def test_no_dead_definitions():
    package = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "robustcast").rglob("*.py"))
    }
    naming = [path.read_text(encoding="utf-8") for path in ALL_SOURCES]
    assert dead_definitions(package, naming) == []


def test_definition_scan_flags_what_only_its_own_body_names():
    lib = (
        "class Model:\n"
        "    def __init__(self):\n"
        "        self.size = 0\n"
        "    @property\n"
        "    def width(self):\n"
        "        return self.size\n"
        "    def unused(self):\n"
        "        return self.unused()\n"
        "def recurse(n):\n"
        "    return recurse(n - 1) if n else 0\n"
        "def helper():\n"
        "    return Model().width\n"
    )
    test = "from lib import helper\nhelper()\n"
    assert dead_definitions({"lib.py": lib}, [lib, test]) == [
        "lib.py:7 unused", "lib.py:9 recurse",
    ]
