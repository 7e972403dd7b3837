"""Same-instant ties broken the other way: every flow must keep its outcome.

The kernel fires events due at one instant in submission order, its
``seq`` FIFO (docs/SIM.md).  The determinism gate cannot see a flow whose
result rides on that order, because every rerun submits in the same order.
This test reruns every ``ties`` row of ``tools/flows.py`` with every tie
broken in reverse ``seq`` order, by wrapping the kernel module's
``heappush`` from outside (the kernel has no option for it), and requires
the same outcome and the same trace records as a multiset, ``seq`` aside:
what happened, not in which order within an instant.  A row's ``fifo``
kinds are its written-down seq contract and stay out of the multiset.
"""

import collections
import heapq
import json

import repro.sim.kernel as kernel_module
from repro.sim import SimKernel
from tools.flows import FLOWS

TIED = [flow for flow in FLOWS if flow.ties]


def reversed_push(heap, entry):
    """``heappush`` with ``(t, seq, h)`` pushed as ``(t, -seq, h)``."""
    time_s, seq, handle = entry
    heapq.heappush(heap, (time_s, -seq, handle))


def records(jsonl, skip=frozenset()):
    """A trace as a multiset of its records with ``seq`` dropped."""
    bag = collections.Counter()
    for line in jsonl.splitlines():
        record = json.loads(line)
        if record["kind"] not in skip:
            del record["seq"]
            bag[json.dumps(record, sort_keys=True)] += 1
    return bag


def test_every_flow_keeps_its_outcome_when_ties_break_the_other_way(
    flow_run, monkeypatch, tmp_path
):
    forward = {flow.name: flow_run(flow) for flow in TIED}
    monkeypatch.setattr(kernel_module, "heappush", reversed_push)
    problems, live = [], []
    for flow in TIED:
        (tmp_path / flow.name).mkdir()
        outcome, jsonl = forward[flow.name]
        back_outcome, back_jsonl = flow.run(tmp_path / flow.name)
        if back_outcome != outcome:
            problems.append(f"{flow.name}: the outcome follows the seq FIFO")
        elif [records(text, flow.fifo) for text in back_jsonl] != [
            records(text, flow.fifo) for text in jsonl
        ]:
            problems.append(f"{flow.name}: a trace record follows the seq FIFO")
        if back_jsonl != jsonl:
            live.append(flow.name)
    assert not problems, "\n".join(problems)
    assert live, "reversing ties changed no trace byte: the perturbation is dead"


def test_a_same_instant_write_race_is_caught(monkeypatch):
    # The bug class the rerun exists for: a reset and a set of one field,
    # registered for the same instant, leave whichever fires last.
    def flow():
        kernel = SimKernel(seed=0)
        mirror = {"synced": None}
        kernel.at(20.0, lambda: mirror.update(synced=True))
        kernel.at(20.0, lambda: mirror.update(synced=None))
        kernel.run()
        return mirror

    forward = flow()
    monkeypatch.setattr(kernel_module, "heappush", reversed_push)
    assert flow() != forward
