"""simlint trace-order race detector (``SL301``): same-timestamp hazards.

The kernel fires events in ``(time, seq)`` heap order: events due at the
same time fire in registration order (docs/SIM.md).  Two callbacks
scheduled at the *same* time that write the *same* state therefore produce
a result that depends on the order the scheduling lines run, which is
exactly the kind of incidental ordering a refactor silently changes.

``SL301`` flags, within one function, two-plus ``kernel.at(...)``
registrations at a syntactically identical time whose callbacks (lambdas
or same-scope ``def``\\ s) assign overlapping attributes.  The outcome
rides on registration order with no declared ``seq`` contract; schedule
at distinct times, merge the callbacks, or document the FIFO dependence.

Whether a trace *file* is ordered and canonically serialised is not a
source rule: ``repro.sim.validate_jsonl`` (``python -m repro.sim``) checks it.
"""

from __future__ import annotations

import ast
from collections import defaultdict

from ..diagnostic import Severity
from ..registry import rule
from ._pysource import iter_functions

__all__ = ["run"]

SL301 = rule(
    "SL301",
    "source",
    Severity.WARNING,
    "same-time callbacks write overlapping state with no seq contract",
    "schedule at distinct times, merge the callbacks into one handler, or "
    "make the registration-order (seq FIFO) dependence explicit",
)

#: Attribute names that register a timed callback on the kernel.
_SCHEDULE_ATTRS = frozenset({"at", "schedule"})


# ---------------------------------------------------------------------------
# SL301: static same-time conflict detection


def _callback_writes(node: ast.AST, scope: dict[str, ast.FunctionDef]) -> set[str]:
    """Dotted attribute targets a callback assigns (``self.count``, ...)."""
    body: list[ast.stmt] | None = None
    if isinstance(node, ast.Lambda):
        # a lambda body is an expression; the only writes it can perform are
        # through calls, which we cannot see — treat calls to same-scope
        # functions as those functions' writes.
        target = node.body
        if isinstance(target, ast.Call) and isinstance(target.func, ast.Name):
            resolved = scope.get(target.func.id)
            if resolved is not None:
                body = resolved.body
    elif isinstance(node, ast.Name):
        resolved = scope.get(node.id)
        if resolved is not None:
            body = resolved.body
    if body is None:
        return set()
    writes: set[str] = set()
    for stmt in body:
        for sub in ast.walk(stmt):
            targets: list[ast.expr] = []
            if isinstance(sub, ast.Assign):
                targets = sub.targets
            elif isinstance(sub, ast.AugAssign):
                targets = [sub.target]
            for target in targets:
                if isinstance(target, ast.Attribute):
                    parts = []
                    value: ast.AST = target
                    while isinstance(value, ast.Attribute):
                        parts.append(value.attr)
                        value = value.value
                    if isinstance(value, ast.Name):
                        parts.append(value.id)
                        writes.add(".".join(reversed(parts)))
    return writes


def run(tree: ast.Module, path: str, emit) -> None:
    """Run SL301 over one parsed source file."""
    module_defs = {
        f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)
    }
    for fn in iter_functions(tree):
        scope = dict(module_defs)
        scope.update(
            {f.name: f for f in fn.body if isinstance(f, ast.FunctionDef)}
        )
        by_time: dict[str, list[tuple[ast.Call, set[str]]]] = defaultdict(list)
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SCHEDULE_ATTRS
                and len(node.args) >= 2
            ):
                continue
            time_key = ast.dump(node.args[0])
            writes = _callback_writes(node.args[1], scope)
            by_time[time_key].append((node, writes))
        for group in by_time.values():
            if len(group) < 2:
                continue
            for i, (call_a, writes_a) in enumerate(group):
                for call_b, writes_b in group[i + 1:]:
                    overlap = writes_a & writes_b
                    if overlap:
                        emit(
                            "SL301",
                            f"callbacks scheduled at the same time both "
                            f"write {', '.join(sorted(overlap))} "
                            f"(lines {call_a.lineno} and {call_b.lineno}, "
                            f"in {fn.name})",
                            location=f"{path}:{call_a.lineno}",
                        )
