"""Shared AST machinery for the simlint source passes (``SL*`` rules).

The source passes analyze the *repro source tree itself* rather than a
cluster definition, so they work on :mod:`ast` trees.  This module holds
the pieces every SL pass needs:

* :class:`ImportMap` — resolve a ``Name``/``Attribute`` chain to the dotted
  name it refers to, through ``import x as y`` / ``from x import y as z``
  aliasing, so ``pc()`` after ``from time import perf_counter as pc`` is
  recognised as ``time.perf_counter``;
* unordered-expression inference — a conservative intraprocedural dataflow
  that decides whether an expression's iteration order is deterministic
  (sets are not; ``sorted(...)`` always is), including one level of
  same-file function summaries ("this helper returns a set");
* small helpers shared by the memo and trace-order passes.

Everything here is pure analysis over stdlib :mod:`ast`; nothing imports
the modules being analyzed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "ImportMap",
    "UnorderedAnalysis",
    "iter_functions",
    "self_attr",
]


class ImportMap:
    """Alias → dotted-module resolution collected from a whole module.

    Function-local imports count too (``run_hpl_small`` does
    ``import time`` inside the function body), which is why the map is
    built from a full-tree walk rather than just module-level statements.
    """

    def __init__(self, tree: ast.AST) -> None:
        #: local alias -> dotted prefix it stands for
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted name of an expression, through import aliases.

        ``np.random.rand`` (after ``import numpy as np``) resolves to
        ``numpy.random.rand``; chains rooted at anything other than an
        imported name resolve to their literal spelling (``self.kernel.at``)
        so callers can still pattern-match on suffixes.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        root = self.aliases.get(parts[0])
        if root is not None:
            parts[0:1] = root.split(".")
        return ".".join(parts)


def self_attr(node: ast.AST) -> str | None:
    """``self.X`` → ``"X"``; anything else → None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def iter_functions(tree: ast.AST):
    """Every function/method definition in the tree (including nested)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


#: ``sorted()`` and friends impose a deterministic order on anything.
_ORDERING_CALLS = frozenset({"sorted", "min", "max"})
#: Constructors/builtins whose result iterates in hash order.
_SET_CALLS = frozenset({"set", "frozenset"})
#: Methods that return a set regardless of receiver type.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)


@dataclass
class UnorderedAnalysis:
    """Decides whether expressions iterate in nondeterministic order.

    The walk is deliberately conservative: it only reports *unordered* when
    it can see set-ness — a set literal/comprehension, a ``set()`` /
    ``frozenset()`` call, set algebra on such values, a local name assigned
    from one, a ``self.X`` attribute a class ``__init__`` initialises as a
    set, or a call to a same-file function whose return expression is
    set-typed.  Wrapping any of those in ``sorted(...)`` makes the result
    ordered again.
    """

    tree: ast.Module
    #: function/method name -> returns an unordered value
    _returns_unordered: dict[str, bool] = field(default_factory=dict)
    #: class attr names initialised as sets, per enclosing class walk
    _set_attrs: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        # Class attributes initialised as sets (``self._dead = set()``).
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name != "__init__":
                    continue
                for stmt in ast.walk(fn):
                    targets: list[ast.expr] = []
                    value = None
                    if isinstance(stmt, ast.Assign):
                        targets, value = stmt.targets, stmt.value
                    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                        targets, value = [stmt.target], stmt.value
                    for target in targets:
                        attr = self_attr(target)
                        if attr and value is not None and self._is_set_expr(value):
                            self._set_attrs.add(attr)
        # One level of same-file function summaries: "returns a set".
        for fn in iter_functions(self.tree):
            locals_unordered = self._unordered_locals(fn)
            for stmt in ast.walk(fn):
                if isinstance(stmt, ast.Return) and stmt.value is not None:
                    if self._is_unordered(stmt.value, locals_unordered):
                        self._returns_unordered[fn.name] = True
                        break

    # -- expression classification -----------------------------------------

    def _is_set_expr(self, node: ast.expr) -> bool:
        """Purely syntactic set-ness (no local dataflow)."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in _SET_CALLS:
                return True
            if isinstance(fn, ast.Attribute) and fn.attr in _SET_METHODS:
                return True
        return False

    def _unordered_locals(self, fn: ast.FunctionDef) -> set[str]:
        """Local names assigned from an unordered expression, fixpointed."""
        names: set[str] = set()
        for _ in range(3):  # aliases of aliases converge fast
            grew = False
            for stmt in ast.walk(fn):
                if not isinstance(stmt, ast.Assign):
                    continue
                if not self._is_unordered(stmt.value, names):
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id not in names:
                        names.add(target.id)
                        grew = True
            if not grew:
                break
        return names

    def _is_unordered(self, node: ast.expr, local_names: set[str]) -> bool:
        if self._is_set_expr(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in local_names
        if isinstance(node, ast.Attribute):
            attr = self_attr(node)
            return attr is not None and attr in self._set_attrs
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_unordered(node.left, local_names) or self._is_unordered(
                node.right, local_names
            )
        if isinstance(node, ast.Call):
            fn = node.func
            # sorted(<anything>) is ordered, full stop.
            if isinstance(fn, ast.Name) and fn.id in _ORDERING_CALLS:
                return False
            # list(xs)/tuple(xs) preserve (dis)order of the argument.
            if isinstance(fn, ast.Name) and fn.id in ("list", "tuple") and node.args:
                return self._is_unordered(node.args[0], local_names)
            # a call to a same-file function summarised as set-returning
            callee = None
            if isinstance(fn, ast.Name):
                callee = fn.id
            elif isinstance(fn, ast.Attribute):
                callee = fn.attr
            if callee is not None and self._returns_unordered.get(callee):
                return True
        return False

    # -- the public query ---------------------------------------------------

    def unordered_loops(self, fn: ast.FunctionDef) -> list[ast.For]:
        """``for`` statements in ``fn`` whose iterable is unordered."""
        local_names = self._unordered_locals(fn)
        out = []
        for stmt in ast.walk(fn):
            if isinstance(stmt, ast.For) and self._is_unordered(
                stmt.iter, local_names
            ):
                out.append(stmt)
        return out
