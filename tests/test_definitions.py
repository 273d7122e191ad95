"""No module or class body defines a function or class name twice.

A second ``def`` or ``class`` of the same name silently replaces the first,
so a shadowed test class is never collected and a shadowed function is
dead code.  The check parses every module of the package and of the tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "plbag").glob("*.py"), *(ROOT / "tests").glob("*.py")])
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def shadowed(body: list[ast.stmt], path: Path) -> list[str]:
    """``path:line`` entries for each name a body defines again, recursing
    into the bodies of its classes."""
    found = []
    first: dict[str, int] = {}
    for node in body:
        if not isinstance(node, DEFINITIONS):
            continue
        if node.name in first:
            found.append(
                f"{path.relative_to(ROOT)}:{node.lineno}: {node.name!r}"
                f" shadows the definition at line {first[node.name]}"
            )
        first.setdefault(node.name, node.lineno)
        if isinstance(node, ast.ClassDef):
            found.extend(shadowed(node.body, path))
    return found


def test_no_name_is_defined_twice_in_one_body():
    assert {"core.py", "test_definitions.py"} <= {path.name for path in SOURCES}
    found = [
        entry
        for path in SOURCES
        for entry in shadowed(ast.parse(path.read_text(), filename=str(path)).body, path)
    ]
    assert found == []


def test_a_shadowed_class_is_reported():
    text = "class A:\n    def f(self): ...\n    def f(self): ...\nclass A: ...\n"
    path = ROOT / "tests" / "example.py"
    assert shadowed(ast.parse(text).body, path) == [
        "tests/example.py:3: 'f' shadows the definition at line 2",
        "tests/example.py:4: 'A' shadows the definition at line 1",
    ]
