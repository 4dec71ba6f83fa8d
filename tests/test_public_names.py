"""Every public name in ``src/qcycle`` has a caller outside the tests, and every import a use.

The names checked are the top-level ones and the methods and properties of
public classes. A name that only tests reach is a test oracle and belongs in
``tests/``; a name nothing reaches is dead. The check parses
``src/qcycle/*.py`` and counts a name as used when the package, ``scripts/``
or ``perfbench/`` loads it as a variable, reads it as an attribute or imports
it, besides defining it.

The import check parses every module of ``src/qcycle``, ``scripts/`` and
``tests/``: a name an import binds must be read in that module or listed in
its ``__all__``.
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


# Imports kept without a use in their own module, each for a reason of its own.
ALLOWED_UNUSED_IMPORTS = {
    "src/qcycle/cli.py:minimize_lhs": "perfbench/tracing.py patches qcycle.cli.minimize_lhs",
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


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import (``__future__`` aside) that the module never reads nor lists in ``__all__``."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.extend(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_every_import_is_used():
    modules = [
        path
        for folder in (PACKAGE, ROOT / "scripts", ROOT / "tests")
        for path in sorted(folder.glob("*.py"))
    ]
    unused = [
        f"{path.relative_to(ROOT).as_posix()}:{name}"
        for path in modules
        for name in unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert [entry for entry in unused if entry not in ALLOWED_UNUSED_IMPORTS] == []


def test_import_check_sees_unused_names():
    tree = ast.parse(
        "from __future__ import annotations\nimport os, os.path as osp\nimport numpy.linalg\n"
        "from a import b, c as d, e\n__all__ = ['e']\nnumpy.linalg.norm(b)\n"
    )
    assert unused_imports(tree) == ["os", "osp", "d"]


def test_allowed_unused_imports_are_unused():
    # An allow-list entry whose import is gone, or now read, is stale.
    for entry in ALLOWED_UNUSED_IMPORTS:
        path, name = entry.split(":")
        assert name in unused_imports(ast.parse((ROOT / path).read_text()))
