"""simlint cache-coherence checker (``SL202``): memoisation must be keyed.

A memo that survives the mutation of what it summarises serves stale
answers, and no test fails until a workload happens to interleave exactly
wrong.  ``SL202`` flags memoisation not tied to an epoch or content
fingerprint: a ``functools.lru_cache`` / ``functools.cache`` on a function
whose signature carries no epoch/fingerprint-like key, or a
``*_cache``/``*_memo`` dict attribute in a class that has no ``*_epoch``
validity marker to compare against.

Derived values that are not memo dicts follow docs/PERF.md's rule instead:
a value is either absent (``None``) or current, and the mutator that
changes the content updates it or drops it (``RpmDatabase``,
``Repository``).
"""

from __future__ import annotations

import ast

from ..diagnostic import Severity
from ..registry import rule
from ._pysource import ImportMap, self_attr

__all__ = ["run"]

SL202 = rule(
    "SL202",
    "source",
    Severity.ERROR,
    "memo cache is not tied to an epoch or content fingerprint",
    "key the cache on an epoch/fingerprint (as the depsolver's resolution "
    "LRU does); an unkeyed memo survives mutation",
)

#: Attribute names that hold a class's mutation epoch.
_EPOCH_NAMES = frozenset({"_epoch", "epoch", "revision", "_revision"})
#: Parameter names that make an ``lru_cache`` epoch-sound: the epoch (or a
#: content digest) is part of the memo key, so stale entries can't be hit.
_EPOCH_PARAMS = frozenset(
    {"epoch", "revision", "fingerprint", "checksum", "key", "etag"}
)


def _lru_cache_findings(tree: ast.Module, imports: ImportMap):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = imports.resolve(target)
            if name not in (
                "functools.lru_cache",
                "functools.cache",
                "lru_cache",
                "cache",
            ):
                continue
            params = {a.arg for a in node.args.args + node.args.kwonlyargs}
            if not params & _EPOCH_PARAMS:
                yield node, name


def _unkeyed_memo_attrs(cls: ast.ClassDef):
    """``*_cache``/``*_memo`` dict attrs in classes with no epoch marker."""
    init = next(
        (f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"),
        None,
    )
    if init is None:
        return
    memo_attrs: list[tuple[str, int]] = []
    has_marker = False
    for stmt in ast.walk(init):
        targets: list[ast.expr] = []
        value = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            attr = self_attr(target)
            if attr is None:
                continue
            if attr.endswith("_epoch") or attr in _EPOCH_NAMES:
                has_marker = True
            elif attr.endswith(("_cache", "_memo")) and _is_dict_expr(value):
                memo_attrs.append((attr, stmt.lineno))
    if not has_marker:
        yield from memo_attrs


def _is_dict_expr(node: ast.expr | None) -> bool:
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
    )


def run(tree: ast.Module, path: str, emit) -> None:
    """Run SL202 over one parsed source file."""
    imports = ImportMap(tree)

    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for attr, lineno in _unkeyed_memo_attrs(node):
            emit(
                "SL202",
                f"{node.name}.{attr} is a memo dict with no *_epoch validity "
                f"marker in the class",
                location=f"{path}:{lineno}",
            )

    for fn, deco_name in _lru_cache_findings(tree, imports):
        emit(
            "SL202",
            f"@{deco_name} on {fn.name}() has no epoch/fingerprint in its "
            f"key ({', '.join(sorted(_EPOCH_PARAMS))})",
            location=f"{path}:{fn.lineno}",
        )
