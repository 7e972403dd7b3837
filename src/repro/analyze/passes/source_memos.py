"""simlint memo checker (``SL202``): a memo is absent or current.

docs/PERF.md's rule for a derived value is that it is either absent or
current: the mutator that changes what it summarises updates it or drops
it.  A memo that no method ever drops survives every change and serves
stale answers from then on.  ``SL202`` flags the two shapes of that:

* a ``*_cache``/``*_memo`` dict attribute that its class creates in one
  method and never reassigns, clears, pops or deletes anywhere else;
* ``functools.lru_cache``/``functools.cache`` on a method, whose key holds
  the instance: nothing the instance does can drop the entry.

A module-level ``lru_cache`` is keyed on its arguments and is not flagged.
Whether a memo that *is* dropped is dropped at the right time is for the
scan-oracle properties (``tests/test_perf_indexes.py``) and the
determinism gate's flows; SL202 also reaches code that no flow runs.
"""

from __future__ import annotations

import ast
from collections import defaultdict

from ..diagnostic import Severity
from ..registry import rule
from ._pysource import ImportMap, self_attr

__all__ = ["run"]

SL202 = rule(
    "SL202",
    "source",
    Severity.ERROR,
    "memo that no mutator drops or updates",
    "keep a derived value absent or current: the mutator that changes "
    "what it summarises drops or updates it (docs/PERF.md)",
)

_MEMO_SUFFIXES = ("_cache", "_memo")
_MEMO_DECORATORS = frozenset(
    {"functools.lru_cache", "functools.cache", "lru_cache", "cache"}
)
#: Calls on a memo that drop entries.
_DROPS = frozenset({"clear", "pop", "popitem"})


def _is_dict_expr(node: ast.expr | None) -> bool:
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
    )


def _undropped_memos(cls: ast.ClassDef):
    """(attr, line) of each memo dict the class never drops."""
    created: dict[str, tuple[str, int]] = {}
    assigned_in: dict[str, set[str]] = defaultdict(set)
    dropped: set[str] = set()
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    attr = self_attr(target)
                    if attr is None:
                        continue
                    assigned_in[attr].add(method.name)
                    if attr.endswith(_MEMO_SUFFIXES) and _is_dict_expr(node.value):
                        created.setdefault(attr, (method.name, node.lineno))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DROPS
            ):
                dropped.add(self_attr(node.func.value))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        target = target.value
                    dropped.add(self_attr(target))
    for attr, (method, lineno) in created.items():
        if attr not in dropped and assigned_in[attr] == {method}:
            yield attr, lineno


def run(tree: ast.Module, path: str, emit) -> None:
    """Run SL202 over one parsed source file."""
    imports = ImportMap(tree)
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for attr, lineno in _undropped_memos(cls):
            emit(
                "SL202",
                f"{cls.name}.{attr} is a memo dict that no method drops or "
                f"resets",
                location=f"{path}:{lineno}",
            )
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = [
                imports.resolve(deco.func if isinstance(deco, ast.Call) else deco)
                for deco in fn.decorator_list
            ]
            if "staticmethod" in names:
                continue
            for name in names:
                if name in _MEMO_DECORATORS:
                    emit(
                        "SL202",
                        f"@{name} on {cls.name}.{fn.name}() keys on the "
                        f"instance, so no change to it drops the entry",
                        location=f"{path}:{fn.lineno}",
                    )
