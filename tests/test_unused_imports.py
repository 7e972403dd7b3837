"""No module of ``src/repro`` imports a name it never uses.

An import nothing reads costs load time and tells a reader the module
depends on something it does not.  A module-level imported name counts as
used when the module reads it anywhere (an ``ast.Name``, annotations
included) or lists it in ``__all__`` (a re-export).  An import statement
marked ``# noqa: F401`` is kept on purpose: it is there for its side effect,
such as registering a rule set.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every module-level imported name ``source``
    neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any(
            "noqa: F401" in line
            for line in lines[node.lineno - 1 : node.end_lineno]
        ):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                found.append((node.lineno, name))
    return found


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "imported but never used:\n" + "\n".join(found)


def test_the_check_catches_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "from dataclasses import dataclass, field\n"
        "from . import rules  # noqa: F401 - registers rules\n"
        "from .x import Exported\n"
        "__all__ = ['Exported']\n"
        "@dataclass\n"
        "class A:\n"
        "    n: int = 0\n"
    )
    assert unused_imports(source) == [(2, "itertools"), (3, "field")]
