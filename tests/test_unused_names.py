"""Every import and every module-level private name of ``dnacap`` is read in the package.

No lint tool runs on the package, so this test catches what an
unused-import check and a dead-code check would: a helper whose last
caller is gone must leave with its imports.  A module reads a name by
loading it, by reading it as an attribute of the module that binds it
(``cdna.point_mass_host``), or by importing it from that module.

Exempt are ``__init__``'s public re-exports and an import statement marked
``# noqa: F401``, which binds names for callers outside the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dnacap"


def package_sources() -> dict:
    """Module name -> source text, for each module of the package."""
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _bindings(name, lines, tree):
    """(bound name, line, is an import) of each import and private definition at module level."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if (isinstance(node, ast.ImportFrom) and node.module == "__future__"
                    or "# noqa: F401" in lines[node.lineno - 1]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if not (name == "__init__" and not bound.startswith("_")):
                    yield bound, node.lineno, True
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for bound in targets:
            if bound.startswith("_") and not bound.startswith("__"):
                yield bound, node.lineno, False


def unread_names(sources) -> list[str]:
    """``module.py:line kind of name`` for each binding of ``_bindings`` that no module reads."""
    modules = {name: (text.splitlines(), ast.parse(text)) for name, text in sources.items()}
    loads = {name: set() for name in modules}  # names each module loads
    imported = set()  # (module, name) imported from that module by another
    for name, (_, tree) in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads[name].add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                imported.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update((node.module, alias.name) for alias in node.names)
    unread = []
    for name, (lines, tree) in modules.items():
        for bound, line, is_import in _bindings(name, lines, tree):
            read = bound in loads[name] or (name, bound) in imported
            if not read:
                kind = "import" if is_import else "definition"
                unread.append(f"{name}.py:{line} {kind} of {bound}")
    return unread


def test_every_import_and_private_name_is_read():
    assert unread_names(package_sources()) == []


def test_an_import_left_behind_by_its_last_caller_is_caught():
    sources = package_sources()
    sources["cdna"] = ("from .mutation_channel import _eigenvalue_powers, _left_behind\n"
                       + sources["cdna"])
    sources["mutation_channel"] += "\n\ndef _left_behind():\n    pass\n"
    assert unread_names(sources) == ["cdna.py:1 import of _left_behind"]


@pytest.mark.parametrize("source, expected", [
    ("def _helper():\n    pass\n", ["solo.py:1 definition of _helper"]),
    ("_TABLE = {}\n", ["solo.py:1 definition of _TABLE"]),
    ("import math\n", ["solo.py:1 import of math"]),
    ("import math  # noqa: F401\n", []),
    ("from __future__ import annotations\n_A = 1\nB = _A\n", []),
])
def test_unread_bindings_of_one_module(source, expected):
    assert unread_names({"solo": source}) == expected
