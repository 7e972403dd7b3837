"""The structured trace bus: typed events, counters, JSONL export.

Every subsystem publishes what it did to one :class:`TraceBus` as typed
events (``job.start``, ``node.power_on``, ``msg.xfer``, ...).  The bus
checks each event against :data:`EVENT_SCHEMA` at emit time, keeps
per-kind and per-subsystem counters, and serialises to JSONL with sorted
keys — so two runs with the same seed produce byte-identical trace files
that CI can diff and validate.

JSONL envelope (one event per line)::

    {"data": {...}, "kind": "job.start", "seq": 12, "sub": "scheduler", "t": 60.0}

``seq`` is the emission serial, ``t`` the simulated timestamp (per-entity
timelines may stamp events ahead of the kernel clock, so ``t`` is not
globally monotonic — ``seq`` is).

A valid trace file is exactly what :func:`validate_jsonl` accepts: one
``"\\n"``-terminated line per event, each a schema-valid envelope, ``seq``
strictly increasing, and every line byte-equal to the canonical encoding
of its object.  ``python -m repro.sim`` runs that check on files; the
determinism gate compares the traces of runs under distinct hash seeds.
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter
from collections.abc import Callable, Mapping
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Any, NamedTuple

from ..errors import TraceError

__all__ = [
    "EVENT_SCHEMA",
    "TraceEvent",
    "TraceBus",
    "validate_event",
    "validate_jsonl",
    "audit_events",
]

#: Required data fields (and their types) per event kind.  ``float`` accepts
#: ints too; extra fields are always allowed.  A new layer adds its kinds
#: here.
EVENT_SCHEMA: dict[str, dict[str, type]] = {
    # scheduler
    "job.submit": {"job": str, "user": str, "cores": int},
    "job.start": {"job": str, "cores": int, "nodes": str, "wait_s": float},
    "job.end": {"job": str, "state": str},
    "job.cancel": {"job": str},
    # power management
    "node.power_on": {"node": str, "boot_delay_s": float},
    "node.power_off": {"node": str},
    # MPI fabric traffic
    "msg.xfer": {"src": int, "dst": int, "nbytes": int, "elapsed_s": float},
    "mpi.barrier": {"ranks": int},
    # monitoring mesh
    "metric.sample": {"host": str, "metric": str, "value": float},
    # package mirror and grid data movement
    "mirror.sync": {"repo": str, "nbytes": int, "files": int, "skipped": bool},
    "grid.xfer": {"file": str, "nbytes": int, "retries": int},
    # fault injection and recovery (repro.faults)
    "fault.inject": {"fault": str, "target": str},
    "fault.recover": {"fault": str, "target": str, "downtime_s": float},
    "fault.retry": {"op": str, "attempt": int, "delay_s": float},
    "fault.giveup": {"op": str, "attempts": int},
    # graceful degradation
    "job.requeue": {"job": str, "reason": str},
    "node.drain": {"node": str, "reason": str},
    "monitor.host_dead": {"host": str, "missed": int},
    # self-healing supervisor (repro.recovery)
    "recover.node": {"node": str, "attempt": int},
    "recover.gmond": {"host": str},
    "recover.undrain": {"node": str},
    "recover.resubmit": {"job": str, "attempt": int},
    "recover.reinstall": {"node": str, "attempt": int, "ok": bool},
    # fleet-scale installs and hierarchical monitoring (repro.fleet)
    "install.wave": {"wave": int, "nodes": str, "count": int, "pkgs": int},
    "monitor.rack": {
        "rack": str,
        "hosts_up": int,
        "hosts_total": int,
        "load_total": float,
    },
    "monitor.rollup": {
        "racks": int,
        "changed": int,
        "hosts_up": int,
        "hosts_total": int,
        "load_total": float,
    },
    # parallel admin execution and rolling updates (repro.shell)
    "shell.cmd": {"nodes": str, "command": str, "fanout": int, "count": int},
    "shell.retry": {"node": str, "attempt": int, "delay_s": float},
    "shell.gather": {"nodes": str, "rc": int, "count": int},
    "shell.wave": {
        "wave": int,
        "nodes": str,
        "count": int,
        "ok": int,
        "failed": int,
        "skipped": int,
        "status": str,
    },
    "shell.abort": {"reason": str, "wave": int, "nodes": str},
    # the XNIT repository service under load (repro.repod)
    "repod.request": {
        "req": str,
        "client": str,
        "artifact": str,
        "outcome": str,
        "source": str,
        "elapsed_s": float,
    },
    "repod.shed": {"origin": str, "artifact": str, "reason": str, "queued": int},
    "repod.coalesce": {"proxy": str, "artifact": str, "waiters": int},
    "repod.stale": {"proxy": str, "artifact": str, "age_s": float},
    "repod.retry_budget": {
        "owner": str,
        "op": str,
        "allowed": bool,
        "tokens": float,
    },
    # content-addressed lazy delivery (repro.cas)
    "cas.publish": {
        "catalog": str,
        "serial": int,
        "packages": int,
        "chunks": int,
        "new_chunks": int,
        "nbytes": int,
    },
    "cas.rollback": {"catalog": str, "serial": int, "restored": int},
    "cas.replicate": {
        "replica": str,
        "serial": int,
        "chunks": int,
        "nbytes": int,
        "skipped": bool,
    },
    "cas.fetch": {
        "tier": str,
        "artifact": str,
        "chunks": int,
        "hit_chunks": int,
        "nbytes": int,
    },
}


def _type_ok(value: object, expected: type) -> bool:
    if expected is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, expected)


def _data_problems(kind: str, schema: dict[str, type], data: Mapping[str, Any]):
    """Yield what is wrong with ``data`` as a payload of ``kind`` (the one
    field check behind :meth:`TraceBus.emit` and :func:`validate_event`)."""
    for name, expected in schema.items():
        if name not in data:
            yield f"{kind}: missing data field {name!r}"
        elif not _type_ok(data[name], expected):
            yield (
                f"{kind}: data field {name!r} has type {type(data[name]).__name__}, "
                f"wanted {expected.__name__}"
            )


class TraceEvent(NamedTuple):
    """One published event: what :meth:`TraceBus.emit` records and returns."""

    seq: int
    t_s: float
    kind: str
    subsystem: str
    data: Mapping[str, Any]


def validate_event(obj: Mapping[str, Any]) -> list[str]:
    """Check one decoded JSONL object against the schema; returns problems."""
    problems: list[str] = []
    for key, expected in (("seq", int), ("t", float), ("kind", str), ("sub", str)):
        if key not in obj:
            problems.append(f"missing envelope field {key!r}")
        elif not _type_ok(obj[key], expected):
            problems.append(f"envelope field {key!r} has type {type(obj[key]).__name__}")
    data = obj.get("data")
    if not isinstance(data, Mapping):
        problems.append("missing or non-object 'data'")
        return problems
    kind = obj.get("kind")
    if not isinstance(kind, str):
        return problems
    schema = EVENT_SCHEMA.get(kind)
    if schema is None:
        problems.append(f"unknown event kind {kind!r}")
        return problems
    problems.extend(_data_problems(kind, schema, data))
    return problems


def validate_jsonl(text: str) -> tuple[int, list[str]]:
    """Validate a whole JSONL trace file; returns (event count, problems).

    Lines are split on ``"\\n"`` only.  Each must be a JSON object passing
    :func:`validate_event`, ``seq`` must strictly increase (the bus emits
    it that way), and each line plus its ``"\\n"`` must equal the canonical
    encoding of its object: sorted keys, compact separators, ASCII escapes,
    the last line newline-terminated too.  Problems are prefixed with their
    1-based line number.
    """
    problems: list[str] = []
    count = 0
    last_seq = -1
    lines = text.split("\n")
    for lineno, line in enumerate(lines, start=1):
        if lineno == len(lines) and not line:
            break  # what follows the final newline
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: not JSON ({exc.msg})")
            continue
        count += 1
        if not isinstance(obj, dict):
            problems.append(f"line {lineno}: not a JSON object")
            continue
        for problem in validate_event(obj):
            problems.append(f"line {lineno}: {problem}")
        seq = obj.get("seq")
        if type(seq) is int:  # a bool seq is an envelope problem, not an order
            if seq <= last_seq:
                problems.append(f"line {lineno}: seq {seq} not increasing")
            last_seq = seq
        if lineno == len(lines) or line + "\n" != _canonical_line(obj):
            problems.append(f"line {lineno}: not canonical JSON")
    return count, problems


def _canonical_line(obj: dict) -> str:
    """The canonical encoding of a decoded line, newline included.

    A well-formed envelope goes through the same line formatter as
    :meth:`TraceBus.to_jsonl`; anything else through the fallback encoder.
    Both give the sorted-key compact ``json.dumps`` of ``obj``.
    """
    if obj.keys() == _ENVELOPE_KEYS:
        kind, sub, data = obj["kind"], obj["sub"], obj["data"]
        if type(kind) is str and type(sub) is str and type(data) is dict:
            keys = tuple(data)
            line = _LINE_FORMATTERS.get((kind, sub, keys)) or _line_formatter(
                kind, sub, keys
            )
            return line(obj["seq"], obj["t"], *data.values())
    return _json_fallback(obj) + "\n"


def audit_events(events, reads: Mapping[str, tuple[str, ...]]):
    """Yield ``(kind, data, seq)`` for every event a trace audit reads.

    ``events`` are live :class:`TraceEvent` objects or ``json.loads`` of
    exported JSONL lines (``seq`` is ``None`` if a hand-built dict has
    none).  ``reads`` maps each kind the audit looks at to the data fields
    it reads: other kinds are skipped, and an event lacking one of those
    fields raises :class:`TraceError`.
    """
    for event in events:
        if isinstance(event, TraceEvent):
            kind, data, seq = event.kind, event.data, event.seq
        elif isinstance(event, Mapping):
            kind, data, seq = event.get("kind"), event.get("data"), event.get("seq")
        else:
            raise TraceError(f"not a trace event: {event!r}")
        fields = reads.get(kind) if isinstance(kind, str) else None
        if fields is None:
            continue
        for name in fields:
            if not isinstance(data, Mapping) or name not in data:
                raise TraceError(
                    f"{kind} event (seq {seq}) has no data field {name!r}"
                )
        yield kind, data, seq


_ENVELOPE_KEYS = frozenset({"data", "kind", "seq", "sub", "t"})


def _json_fallback(value: object) -> str:
    """``value`` as JSON, for every value not encoded by exact type below."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: How a generated line formatter encodes one argument by its exact type;
#: ``None``, subclasses, containers and non-finite floats take the fallback,
#: so each line equals the sorted-key compact ``json.dumps`` of its envelope.
_ENCODE_ARG = (
    "    t_ = type({a})\n"
    "    {a} = (_str({a}) if t_ is str else _int({a}) if t_ is int else"
    " _float({a}) if t_ is float and _finite({a}) else"
    " ('true' if {a} else 'false') if t_ is bool else _fallback({a}))\n"
)
_FORMATTER_GLOBALS = {
    "_str": encode_basestring_ascii, "_int": int.__repr__,
    "_float": float.__repr__, "_finite": isfinite, "_fallback": _json_fallback,
}

#: ``(kind, sub, data keys in emit order)`` -> line formatter.  A formatter
#: is a pure function of its key, so entries are never invalidated; there is
#: one per distinct event shape the process has exported.
_LINE_FORMATTERS: dict[tuple, Callable[..., str]] = {}


def _line_formatter(kind: str, sub: str, keys: tuple) -> Callable[..., str]:
    """Generate the JSONL formatter for one event shape, the way
    ``collections.namedtuple`` generates a class.  Only the JSON text of
    ``kind``, ``sub`` and the data keys is baked into its source, as literals;
    values arrive as the arguments ``(seq, t, *data.values())``."""

    def literal(text: object) -> str:
        return _json_fallback(text).replace("{", "{{").replace("}", "}}")

    names = ["seq", "t", *(f"v{i}" for i in range(len(keys)))]
    fields = ",".join(
        f"{literal(keys[i])}:{{v{i}}}"
        for i in sorted(range(len(keys)), key=keys.__getitem__)
    )
    line = (
        '{{"data":{{' + fields + '}},"kind":' + literal(kind)
        + ',"seq":{seq},"sub":' + literal(sub) + ',"t":{t}}}\n'
    )
    source = (
        f"def line({', '.join(names)}):\n"
        + "".join(_ENCODE_ARG.format(a=name) for name in names)
        + f"    return f{line!r}\n"
    )
    namespace = dict(_FORMATTER_GLOBALS)
    exec(source, namespace)
    # A non-str ``sub`` could equal another with different JSON text (1, True).
    if type(sub) is str:
        _LINE_FORMATTERS[kind, sub, keys] = namespace["line"]
    return namespace["line"]


class TraceBus:
    """The simulation's structured event log.

    Emit checks each new *shape* of a kind once: the data keys in emit
    order plus the exact type of each value.  The first emit of a shape
    validates field presence and types; later emits of the same shape skip
    the loop (call sites emit structurally identical payloads).  Whether a
    payload is valid depends only on its keys and the exact types of its
    values, so the cache admits exactly what the loop would.
    """

    def __init__(self) -> None:
        #: Every published event, in emission order — the one log.
        self.events: list[TraceEvent] = []
        #: kind -> ``(keys, value types)`` of the last emit of that kind
        #: that passed validation; an emit of that shape skips the loop.
        self._validated_shapes: dict[str, tuple] = {}

    def __len__(self) -> int:
        return len(self.events)

    @property
    def by_kind(self) -> Counter:
        """Events per kind (counted from the log on each read)."""
        return Counter(event.kind for event in self.events)

    def emit(
        self, kind: str, *, t_s: float, subsystem: str, **data: Any
    ) -> TraceEvent:
        """Publish one event and return it."""
        schema = EVENT_SCHEMA.get(kind)
        if schema is None:
            raise TraceError(f"unknown event kind {kind!r}")
        shape = (tuple(data), tuple(map(type, data.values())))
        if self._validated_shapes.get(kind) != shape:
            for problem in _data_problems(kind, schema, data):
                raise TraceError(problem)
            self._validated_shapes[kind] = shape
        event = TraceEvent(len(self.events), float(t_s), kind, subsystem, data)
        self.events.append(event)
        return event

    def count(self, kind: str | None = None, *, subsystem: str | None = None) -> int:
        """Events seen, optionally filtered by kind or subsystem."""
        if kind is not None:
            return sum(1 for event in self.events if event.kind == kind)
        if subsystem is not None:
            return sum(1 for event in self.events if event.subsystem == subsystem)
        return len(self.events)

    def _lines(self):
        formatters = _LINE_FORMATTERS
        for seq, t, kind, sub, data in self.events:
            keys = tuple(data)
            line = formatters.get((kind, sub, keys)) or _line_formatter(kind, sub, keys)
            yield line(seq, t, *data.values())

    def to_jsonl(self) -> str:
        """The whole trace as JSONL (deterministic byte-for-byte)."""
        return "".join(self._lines())

    def write_jsonl(self, path) -> int:
        """Write the trace to ``path``, line by line; returns the event count."""
        with pathlib.Path(path).open("w") as out:
            out.writelines(self._lines())
        return len(self.events)

    def render_counters(self) -> str:
        """A small per-kind summary table (for example/benchmark output)."""
        lines = [f"{'event kind':<18}{'count':>8}"]
        for kind, count in sorted(self.by_kind.items()):
            lines.append(f"{kind:<18}{count:>8}")
        lines.append(f"{'total':<18}{len(self.events):>8}")
        return "\n".join(lines)
