"""The determinism gate: every gated flow, run under pinned and distinct
hash seeds, must leave the same bytes.

"Same seed => byte-identical trace" is the reproduction's contract
(docs/SIM.md).  Iteration order over a set of strings follows the
process's hash seed, so a flow that lets such an order reach the trace or
the event queue diverges here; so does a wall-clock read or unseeded
randomness that reaches a result.  The hash seed is fixed when the
interpreter starts, so each seed runs ``python tools/flows.py DIR`` in its
own process, which records every ``seeds`` row of the flow table: its
outcome, its traces and the files it wrote.  A row with a reference (the
checkpoint resume, the paper record) must also match its reference.  A
mismatch names the row, the file, the 1-based line and both lines.
"""

import itertools
import os
import pathlib
import subprocess
import sys

from tools.flows import FLOWS

ROOT = pathlib.Path(__file__).resolve().parents[1]
HASH_SEEDS = ("0", "1", "7")


def first_difference(a: pathlib.Path, b: pathlib.Path, pattern: str) -> str | None:
    """Where the files under ``a`` and ``b`` that match ``pattern`` first
    differ (``<`` is ``a``'s line, ``>`` is ``b``'s), or None when they are
    the same files with the same bytes."""
    names = [sorted(p.relative_to(root) for p in root.glob(pattern) if p.is_file())
             for root in (a, b)]
    if names[0] != names[1]:
        return f"different files: {sorted(set(names[0]) ^ set(names[1]))}"
    for name in names[0]:
        lines = [(root / name).read_bytes().decode().split("\n") for root in (a, b)]
        for number, (x, y) in enumerate(itertools.zip_longest(*lines), 1):
            if x != y:
                return f"{name}:{number}\n  < {x}\n  > {y}"
    return None


def test_every_flow_is_byte_identical_under_three_hash_seeds(tmp_path):
    runs = [
        subprocess.Popen(
            [sys.executable, "tools/flows.py", str(tmp_path / seed)],
            cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        for seed in HASH_SEEDS
    ]
    assert [run.wait(timeout=600) for run in runs] == [0] * len(HASH_SEEDS)
    gated = [flow for flow in FLOWS if flow.seeds]
    first = tmp_path / HASH_SEEDS[0]
    assert sorted(path.name for path in first.iterdir()) == sorted(f.name for f in gated)
    problems = []
    for flow in gated:
        for seed in HASH_SEEDS[1:]:
            diff = first_difference(first / flow.name, tmp_path / seed / flow.name, "**/*")
            if diff:
                problems.append(f"{flow.name}: PYTHONHASHSEED={HASH_SEEDS[0]} vs {seed} at {diff}")
        if flow.reference is not None:
            diff = first_difference(first / flow.name / "run", first / flow.name / "reference", "*")
            if diff:
                problems.append(f"{flow.name}: the run and its reference differ at {diff}")
    assert not problems, "\n".join(problems)
