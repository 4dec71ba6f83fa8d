"""Every public name in ``src/qcycle`` has a caller outside the tests.

The names checked are the top-level ones and the methods and properties of
public classes. A name that only tests reach is a test oracle and belongs in
``tests/``; a name nothing reaches is dead. The check parses
``src/qcycle/*.py`` and counts a name as used when the package, ``scripts/``
or ``perfbench/`` loads it as a variable, reads it as an attribute or imports
it, besides defining it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcycle"

# Public names kept without a caller, each for a reason of its own.
ALLOWED_UNUSED = {
    "parse_structured": "documented inverse of the structured report format",
    "save_scenario": "documented inverse of the scenario file format",
    "contextual_cone_vectors": "pinned public batch view of the contextual cone",
}


def top_level_public_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def public_method_names(tree: ast.Module) -> list[str]:
    """``Class.method`` for every public method or property of a public class."""
    return [
        f"{cls.name}.{node.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    ]


def referenced_names(paths) -> set[str]:
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def used_outside_the_tests() -> set[str]:
    callers = [PACKAGE.glob("*.py"), (ROOT / "scripts").glob("*.py"), (ROOT / "perfbench").glob("*.py")]
    return referenced_names(path for paths in callers for path in sorted(paths))


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    used = used_outside_the_tests()
    unused = [
        f"{path.name}:{name}"
        for path in modules
        for name in top_level_public_names(ast.parse(path.read_text()))
        if name not in used and name not in ALLOWED_UNUSED
    ]
    assert unused == []


def test_every_public_method_has_a_caller_outside_the_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    used = used_outside_the_tests()
    unused = [
        f"{path.name}:{name}"
        for path in modules
        for name in public_method_names(ast.parse(path.read_text()))
        if name.split(".")[1] not in used
    ]
    assert unused == []


def test_method_check_sees_methods_and_properties():
    tree = ast.parse(
        "class A:\n    def f(self): pass\n    @property\n    def p(self): pass\n"
        "    def _g(self): pass\nclass _B:\n    def h(self): pass\n"
    )
    assert public_method_names(tree) == ["A.f", "A.p"]


def test_allow_list_names_exist():
    defined = {
        name for path in PACKAGE.glob("*.py") for name in top_level_public_names(ast.parse(path.read_text()))
    }
    assert set(ALLOWED_UNUSED) <= defined
