"""The re-dumping trace-file check, kept verbatim as a reference oracle.

:func:`validate_jsonl` is the body ``repro.sim.validate_jsonl`` had before
it compared each line with the export's per-shape line formatter; it
re-encodes every decoded line with ``json.dumps`` instead.
``tests/test_sim_kernel.py`` asserts the two return the same count and
problem strings over valid, re-spaced and corrupted traces.
"""

from __future__ import annotations

import json

from repro.sim import validate_event

__all__ = ["validate_jsonl"]


def _json_fallback(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def validate_jsonl(text: str) -> tuple[int, list[str]]:
    """Oracle for :func:`repro.sim.validate_jsonl`: one ``json.dumps`` per line."""
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
        if lineno == len(lines) or line != _json_fallback(obj):
            problems.append(f"line {lineno}: not canonical JSON")
    return count, problems
