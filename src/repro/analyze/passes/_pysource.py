"""Shared AST machinery for the simlint source passes (``SL*`` rules).

The source passes analyze the *repro source tree itself* rather than a
cluster definition, so they work on :mod:`ast` trees.  This module holds
the pieces every SL pass needs:

* :class:`ImportMap` — resolve a ``Name``/``Attribute`` chain to the dotted
  name it refers to, through ``import x as y`` / ``from x import y as z``
  aliasing, so ``pc()`` after ``from time import perf_counter as pc`` is
  recognised as ``time.perf_counter``;
* :func:`self_attr`, which the memo pass uses to name ``self.X`` targets.

Everything here is pure analysis over stdlib :mod:`ast`; nothing imports
the modules being analyzed.
"""

from __future__ import annotations

import ast

__all__ = ["ImportMap", "self_attr"]


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

