"""Same-instant ties broken the other way: every flow must keep its outcome.

The kernel fires events due at one instant in submission order, its
``seq`` FIFO (docs/SIM.md).  The determinism gate cannot see a flow whose
result rides on that order, because every rerun submits in the same order.
This test reruns the gate's flows with every tie broken in reverse ``seq``
order, by wrapping the kernel module's ``heappush`` from outside (the kernel
has no option for it), and requires the same outcomes: the bench counters,
``ops``, ``failed`` and ``problems``, every ``ChaosReport`` field, and the
rolling update's waves.  It also requires the same trace records, ``seq``
aside, compared as a multiset: what happened, not in which order within an
instant.

One seq contract is written down instead: in the chaos run a Ganglia poll
due at the instant a job starts or ends reads the load left by whichever
event was submitted first, so its ``metric.sample``/``monitor.*`` records
follow the FIFO.  No outcome depends on them.
"""

import collections
import dataclasses
import heapq
import json
import pathlib
import runpy
import sys

import repro.sim.kernel as kernel_module
from repro.faults.chaos import run_chaos
from repro.sim import SimKernel

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench.workloads import WORKLOADS  # noqa: E402

#: Records of the chaos run that follow the seq FIFO (the module docstring).
POLL_KINDS = frozenset({"metric.sample", "monitor.rack", "monitor.rollup"})


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


def run_flows():
    """name -> (outcome, records, trace texts) for every gate flow."""
    flows = {}
    for name in WORKLOADS:
        workload = WORKLOADS[name](2015, smoke=True)
        outcome = workload.run()
        traces = list(outcome.jsonl)
        workload.finish(outcome, deep=True)
        result = (outcome.ops, outcome.failed, outcome.problems, dict(outcome.counters))
        flows[name] = result, [records(text) for text in traces], traces
    chaos = run_chaos(seed=11, cluster="limulus")
    flows["chaos"] = (
        dataclasses.asdict(chaos.report),
        [records(chaos.jsonl, skip=POLL_KINDS)],
        [chaos.jsonl],
    )
    run_update = runpy.run_path(str(ROOT / "examples" / "rolling_xnit_update.py"))["run_update"]
    rolling = run_update(seed=7)
    waves = [
        (w.wave, str(w.nodes), str(w.ok), str(w.failed), str(w.skipped), str(w.unhealthy), w.status)
        for w in rolling["report"].waves
    ]
    jsonl = rolling["kernel"].trace.to_jsonl()
    flows["rolling"] = (rolling["report"].state, waves), [records(jsonl)], [jsonl]
    return flows


def test_every_flow_keeps_its_outcome_when_ties_break_the_other_way(monkeypatch):
    forward = run_flows()
    monkeypatch.setattr(kernel_module, "heappush", reversed_push)
    backward = run_flows()
    assert backward.keys() == forward.keys()
    for name, (outcome, bags, _traces) in forward.items():
        assert backward[name][0] == outcome, f"{name}: the outcome follows the seq FIFO"
        assert backward[name][1] == bags, f"{name}: a trace record follows the seq FIFO"
    live = [name for name in forward if backward[name][2] != forward[name][2]]
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
