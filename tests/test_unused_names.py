"""Every import, module-level private name and private class's method of ``dnacap`` is read.

No lint tool runs on the package, so this test catches what an
unused-import check and a dead-code check would: a helper whose last
caller is gone must leave with its imports.  A module reads a name by
loading it, by reading it as an attribute of the module that binds it
(``cdna.point_mass_host``), or by importing it from that module.  A
method or property of a class whose name starts with ``_`` is read when
some module reads an attribute of that name, on any object
(``constants.point_mass``).  Dunder methods are exempt, and so are the
methods of a class with a base from outside its module other than
``NamedTuple``, which that base may call (argparse calls
``cli._Parser.error``).

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
    """(bound name, line, kind) of each import, private definition and private class's method.

    A method is bound as ``Class.method``; the other kinds are bound at
    module level.
    """
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if (isinstance(node, ast.ImportFrom) and node.module == "__future__"
                    or "# noqa: F401" in lines[node.lineno - 1]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if not (name == "__init__" and not bound.startswith("_")):
                    yield bound, node.lineno, "import"
            continue
        if isinstance(node, ast.ClassDef) and _private(node.name) and all(
                isinstance(base, ast.Name) and (base.id == "NamedTuple" or base.id in classes)
                for base in node.bases):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.lineno, "method"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for bound in targets:
            if _private(bound):
                yield bound, node.lineno, "definition"


def _private(name) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_names(sources) -> list[str]:
    """``module.py:line kind of name`` for each binding of ``_bindings`` that no module reads."""
    modules = {name: (text.splitlines(), ast.parse(text)) for name, text in sources.items()}
    loads = {name: set() for name in modules}  # names each module loads
    imported = set()  # (module, name) imported from that module by another
    attributes = set()  # every attribute name read on any object
    for name, (_, tree) in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads[name].add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name):
                    imported.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update((node.module, alias.name) for alias in node.names)
    unread = []
    for name, (lines, tree) in modules.items():
        for bound, line, kind in _bindings(name, lines, tree):
            if kind == "method":
                read = bound.split(".")[1] in attributes
            else:
                read = bound in loads[name] or (name, bound) in imported
            if not read:
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


def test_a_method_left_behind_by_its_last_caller_is_caught():
    sources = package_sources()
    anchor = "    def point_mass(self,"
    line = sources["cdna"][:sources["cdna"].index(anchor)].count("\n") + 1
    sources["cdna"] = sources["cdna"].replace(
        anchor, "    def _left_behind(self):\n        pass\n\n" + anchor, 1)
    assert unread_names(sources) == [f"cdna.py:{line} method of _ChannelConstants._left_behind"]


@pytest.mark.parametrize("source, expected", [
    ("def _helper():\n    pass\n", ["solo.py:1 definition of _helper"]),
    ("_TABLE = {}\n", ["solo.py:1 definition of _TABLE"]),
    ("import math\n", ["solo.py:1 import of math"]),
    ("import math  # noqa: F401\n", []),
    ("from __future__ import annotations\n_A = 1\nB = _A\n", []),
    ("class _Box:\n    def size(self):\n        pass\n\n\n_Box()\n",
     ["solo.py:2 method of _Box.size"]),
    ("class _Box:\n    @property\n    def size(self):\n        pass\n\n\n_Box().size\n", []),
    ("class _Box:\n    def __len__(self):\n        pass\n\n\n_Box()\n", []),
    ("class Box:\n    def size(self):\n        pass\n", []),
    ("import argparse\n\n\nclass _P(argparse.ArgumentParser):\n    def error(self, m):\n"
     "        pass\n\n\n_P()\n", []),
])
def test_unread_bindings_of_one_module(source, expected):
    assert unread_names({"solo": source}) == expected
