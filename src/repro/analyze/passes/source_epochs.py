"""simlint cache-coherence checker (``SL2xx``): learn and enforce the epoch
protocol.

PR 5's hot paths (``Repository``/``RepoSet``/``RpmDatabase`` capability
indexes, the depsolver memo) are sound only because of a convention stated
in docs/PERF.md: *every* method that changes indexed content bumps the
owner's monotonic epoch (``self._epoch += 1`` / ``self.revision += 1``)
before returning, and every memo keys its validity on an epoch or content
fingerprint.  A mutator that skips the bump serves stale index hits — no
test fails until a workload happens to interleave exactly wrong.

The pass *learns* the protocol per class instead of hard-coding field
names: a class that bumps an epoch counter somewhere is an epoch-protocol
class; the container attributes those bumping methods mutate are its
*indexed fields*.  Then:

* ``SL201`` — a method of an epoch-protocol class mutates an indexed field
  on some path to a normal exit that never bumps the epoch.  The check is
  path-sensitive over ``if``/``for``/``while``/``try`` (a bump that only
  happens in one branch does not cover the other) and inlines same-class
  helper calls one summary deep, so ``_index_add``-style private helpers
  called from bumping mutators do not false-positive.  Paths that end in
  ``raise`` are exempt — transactional code unwinds before publishing.
* ``SL202`` — memoisation not tied to an epoch: a ``functools.lru_cache`` /
  ``functools.cache`` on a function whose signature carries no epoch/
  fingerprint-like key, or a ``*_cache``/``*_memo`` dict attribute in a
  class that has no ``*_epoch`` validity marker to compare against.
"""

from __future__ import annotations

import ast

from ..diagnostic import Severity
from ..registry import rule
from ._pysource import ImportMap, self_attr

__all__ = ["run", "epoch_verdicts"]

SL201 = rule(
    "SL201",
    "source",
    Severity.ERROR,
    "indexed field mutated on a path that skips the epoch bump",
    "bump the class's epoch counter (self._epoch += 1 / self.revision += 1) "
    "on every path that mutates indexed content — stale-index reads are "
    "silent (docs/PERF.md)",
)
SL202 = rule(
    "SL202",
    "source",
    Severity.ERROR,
    "memo cache is not tied to an epoch or content fingerprint",
    "key the cache on an epoch/fingerprint (as Repository.repomd_checksum "
    "and the depsolver's resolution LRU do); an unkeyed memo survives "
    "mutation",
)

#: Attribute names that hold a class's mutation epoch.
_EPOCH_NAMES = frozenset({"_epoch", "epoch", "revision", "_revision"})
#: Container methods that mutate the receiver in place.
_MUTATORS = frozenset(
    {
        "append", "add", "remove", "pop", "popitem", "clear", "setdefault",
        "update", "insert", "extend", "discard", "sort", "reverse",
    }
)
#: Parameter names that make an ``lru_cache`` epoch-sound: the epoch (or a
#: content digest) is part of the memo key, so stale entries can't be hit.
_EPOCH_PARAMS = frozenset(
    {"epoch", "revision", "fingerprint", "checksum", "key", "etag"}
)


# ---------------------------------------------------------------------------
# per-statement classification


def _is_bump(stmt: ast.stmt) -> bool:
    """``self.<epoch> += n`` or ``self.<epoch> = self.<epoch> + n``."""
    if isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Add):
        attr = self_attr(stmt.target)
        return attr in _EPOCH_NAMES
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        attr = self_attr(stmt.targets[0])
        if attr in _EPOCH_NAMES and isinstance(stmt.value, ast.BinOp):
            left = self_attr(stmt.value.left)
            return left == attr and isinstance(stmt.value.op, ast.Add)
    return False


def _is_validity_sync(stmt: ast.stmt) -> bool:
    """``self.<marker>_epoch = <expr>`` — a cache refresher recording the
    epoch it rebuilt against (``self._index_epoch = self.revision``).
    Rebuild methods are coherent by construction, not mutations."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        attr = self_attr(stmt.targets[0])
        return attr is not None and attr.endswith("_epoch") and attr not in _EPOCH_NAMES
    return False


def _mutated_field(stmt: ast.stmt) -> str | None:
    """Indexed-field name a statement mutates in place, if any.

    Covers subscript writes/deletes/augments (``self._packages[k] = v``),
    in-place container method calls (``self._packages.setdefault(...)``),
    and whole-field reassignment outside ``__init__`` (callers decide
    whether the field is *indexed*; this just reports the write).
    """
    # self.F[k] = v / self.F[k] += v
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AugAssign):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = stmt.targets
    for target in targets:
        if isinstance(target, ast.Subscript):
            attr = self_attr(target.value)
            if attr is not None:
                return attr
    # self.F.append(...) — any in-place mutator call, also nested in an
    # expression statement's value.
    for node in ast.walk(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            attr = self_attr(node.func.value)
            if attr is not None:
                return attr
    return None


def _reassigned_field(stmt: ast.stmt) -> str | None:
    """Whole-field reassignment (``self.F = <expr>``), epoch fields aside."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        attr = self_attr(stmt.targets[0])
        if (
            attr is not None
            and not attr.endswith("_epoch")
            and attr not in _EPOCH_NAMES
        ):
            return attr
    return None


def _helper_called(stmt: ast.stmt) -> list[str]:
    """Names of same-class methods a statement calls (``self.helper()``)."""
    out = []
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            attr = self_attr(node.func)
            if attr is not None:
                out.append(attr)
    return out


# ---------------------------------------------------------------------------
# path-sensitive walk

#: A method's transfer function on the "pending unpublished mutation" bit:
#: entry state (False/True) → set of possible states at normal exit
#: (fall-through or ``return``).  Paths ending in ``raise`` contribute
#: nothing — an exceptional exit never publishes the mutated state.
_Summary = dict


class _ClassModel:
    """Everything SL201 learns about one class."""

    def __init__(self, node: ast.ClassDef) -> None:
        self.node = node
        self.methods: dict[str, ast.FunctionDef] = {
            f.name: f for f in node.body if isinstance(f, ast.FunctionDef)
        }
        self.bump_methods = {
            name
            for name, fn in self.methods.items()
            if any(_is_bump(s) for s in ast.walk(fn))
        }
        self.is_epoch_class = bool(self.bump_methods)
        self.indexed_fields = self._learn_indexed_fields()
        self._summaries: dict[str, _Summary] = {}

    def _learn_indexed_fields(self) -> frozenset[str]:
        """Container attrs that bump-carrying methods mutate in place."""
        fields: set[str] = set()
        for name in self.bump_methods:
            for stmt in ast.walk(self.methods[name]):
                field = _mutated_field(stmt)
                if field is not None:
                    fields.add(field)
        return frozenset(fields)

    # -- the walk -----------------------------------------------------------

    def summary(self, name: str, _stack: tuple = ()) -> _Summary:
        """Pending-bit transfer function of a method (memoised)."""
        cached = self._summaries.get(name)
        if cached is not None:
            return cached
        if name in _stack or name not in self.methods:
            # recursion or unknown: identity
            return {False: {False}, True: {True}}
        fn = self.methods[name]
        out: _Summary = {}
        for entry in (False, True):
            fall, returns, _observed = self._walk(
                fn.body, {entry}, _stack + (name,)
            )
            out[entry] = fall | returns
        self._summaries[name] = out
        return out

    def _apply(self, stmt: ast.stmt, states: set[bool], stack) -> set[bool]:
        """One statement's effect on the set of possible pending states."""
        if _is_bump(stmt) or _is_validity_sync(stmt):
            return {False}
        field = _mutated_field(stmt)
        if field is not None and field in self.indexed_fields:
            return {True}
        field = _reassigned_field(stmt)
        if field is not None and field in self.indexed_fields:
            return {True}
        new_states = states
        for helper in _helper_called(stmt):
            if helper in self.methods:
                summary = self.summary(helper, stack)
                new_states = {
                    s for entry in new_states for s in summary[entry]
                }
        return new_states

    def _walk(
        self, body: list[ast.stmt], states: set[bool], stack
    ) -> tuple[set[bool], set[bool], set[bool]]:
        """Returns (fall-through states, return states, observed states).

        ``observed`` is the union of every state the walk saw at a
        statement *entry* — the states an exception raised by that
        statement would propagate from.  A raising statement's own effect
        is treated as not-yet-applied (``del d[k]`` that raises mutated
        nothing), so the post-state of the final statement is deliberately
        not observed.
        """
        returns: set[bool] = set()
        observed: set[bool] = set(states)
        for stmt in body:
            if not states:
                break
            observed |= states
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # a nested def only defines; it does not execute here
            if isinstance(stmt, ast.Return):
                returns |= states
                return set(), returns, observed
            if isinstance(stmt, ast.Raise):
                # exceptional exit: the mutation never gets published as a
                # committed state; transaction layers roll back.
                return set(), returns, observed
            if isinstance(stmt, ast.If):
                then_states, r1, o1 = self._walk(stmt.body, set(states), stack)
                else_states, r2, o2 = self._walk(stmt.orelse, set(states), stack)
                states = then_states | else_states
                returns |= r1 | r2
                observed |= o1 | o2
            elif isinstance(stmt, (ast.For, ast.While)):
                once, r1, o1 = self._walk(stmt.body, set(states), stack)
                skip, r2, o2 = self._walk(stmt.orelse, set(states) | once, stack)
                states = states | once | skip
                returns |= r1 | r2
                observed |= o1 | o2
            elif isinstance(stmt, ast.Try):
                body_states, r1, body_observed = self._walk(
                    stmt.body, set(states), stack
                )
                after = set(body_states)
                returns |= r1
                observed |= body_observed
                for handler in stmt.handlers:
                    # the handler may fire from any statement boundary the
                    # body reached — start it from every observed state
                    h_states, rh, oh = self._walk(
                        handler.body, set(body_observed), stack
                    )
                    after |= h_states
                    returns |= rh
                    observed |= oh
                if stmt.finalbody:
                    after, rf, of = self._walk(stmt.finalbody, after, stack)
                    returns |= rf
                    observed |= of
                states = after
            elif isinstance(stmt, ast.With):
                states, r1, o1 = self._walk(stmt.body, states, stack)
                returns |= r1
                observed |= o1
            else:
                states = self._apply(stmt, states, stack)
        return states, returns, observed

    def unbumped_mutators(self) -> list[tuple[str, int]]:
        """(method name, lineno) for every method SL201 should flag."""
        out = []
        called_by_bumpers: set[str] = set()
        for name in self.bump_methods:
            for stmt in ast.walk(self.methods[name]):
                called_by_bumpers.update(_helper_called(stmt))
        for name, fn in self.methods.items():
            if name in ("__init__", "__new__", "__post_init__"):
                continue
            if True not in self.summary(name)[False]:
                continue
            if name.startswith("_") and name in called_by_bumpers:
                # private helper whose publishing callers own the bump
                # (``_index_add`` called from ``_install_unchecked``)
                continue
            out.append((name, fn.lineno))
        return out


def epoch_verdicts(tree: ast.Module) -> dict[str, list[str]]:
    """Class name → methods SL201 flags.  Exposed for the hypothesis
    agreement test (tests/test_simlint_property.py), which checks the
    static verdict against actually executing generated mutators."""
    out: dict[str, list[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            model = _ClassModel(node)
            if model.is_epoch_class and model.indexed_fields:
                out[node.name] = [name for name, _ in model.unbumped_mutators()]
    return out


# ---------------------------------------------------------------------------
# SL202: epoch-free memoisation


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
    """Run the SL2xx rules over one parsed source file."""
    imports = ImportMap(tree)

    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        model = _ClassModel(node)
        if model.is_epoch_class and model.indexed_fields:
            for name, lineno in model.unbumped_mutators():
                emit(
                    "SL201",
                    f"{node.name}.{name} mutates indexed state "
                    f"({', '.join(sorted(model.indexed_fields))}) on a path "
                    f"without an epoch bump",
                    location=f"{path}:{lineno}",
                )
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
