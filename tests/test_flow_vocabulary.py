"""Every flow's trace speaks its vocabulary.

Each trace of a ``tools/flows.py`` row that names kinds must publish those
kinds, be a valid trace file (as ``python -m repro.sim`` defines it), carry
no retired ``monitor.cycle`` (a flat cluster is a one-leaf ``GmetadTree``),
hold no ``cas.fetch`` record that hit every chunk, and pass the three
trace-only confluence audits (invariants 7-9) on its ``json.loads``-decoded
lines, as a reader of the file alone would run them.
"""

import json

import pytest

from repro.cas import cas_confluence_problems
from repro.repod import repod_confluence_problems
from repro.shell import rolling_confluence_problems
from repro.sim import validate_jsonl
from tools.flows import FLOWS

AUDITS = (rolling_confluence_problems, repod_confluence_problems, cas_confluence_problems)
RETIRED = frozenset({"monitor.cycle"})


@pytest.mark.parametrize("flow", [f for f in FLOWS if f.kinds], ids=lambda f: f.name)
def test_each_trace_speaks_its_rows_vocabulary(flow, flow_run):
    _outcome, jsonl = flow_run(flow)
    published = set()
    for text in jsonl:
        assert validate_jsonl(text)[1] == [], f"{flow.name}: not a valid trace"
        events = [json.loads(line) for line in text.splitlines()]
        published |= {event["kind"] for event in events}
        full_hits = [
            event["seq"] for event in events
            if event["kind"] == "cas.fetch"
            and event["data"]["hit_chunks"] == event["data"]["chunks"]
        ]
        assert not full_hits, f"{flow.name}: cas.fetch records that missed nothing"
        for audit in AUDITS:
            assert audit(events) == [], f"{flow.name}: {audit.__name__}"
    assert flow.kinds <= published, f"{flow.name}: missing {sorted(flow.kinds - published)}"
    assert not published & RETIRED, f"{flow.name}: publishes {sorted(published & RETIRED)}"


@pytest.mark.parametrize("flow", [f for f in FLOWS if f.ties], ids=lambda f: f.name)
def test_a_tied_flow_names_kinds_exactly_when_it_exports_a_trace(flow, flow_run):
    assert bool(flow.kinds) == bool(flow_run(flow)[1])
