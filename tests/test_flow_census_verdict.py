"""The flow census's verdict on small synthetic inputs, with no flow run.

``tools/flow_census.py --check`` runs every flow under a profiler and then
judges the result with :func:`verdict`.  The full run takes about a minute,
so here the verdict gets hand-made ``functions`` / ``ran`` / ``keep``
tables: each test names one kind of problem and the line it must produce.
"""

from tools.flow_census import verdict

#: ``path:qualname -> (code keys, lines)``, as ``census_functions`` builds it
FUNCTIONS = {
    "fleet/table.py:FleetTable.add_row": ({("fleet/table.py", 10)}, 12),
    "fleet/table.py:FleetTable.remove": ({("fleet/table.py", 30)}, 8),
    "rpm/package.py:Package.__str__": ({("rpm/package.py", 50)}, 2),
    "yum/client.py:YumClient.erase": ({("yum/client.py", 70)}, 9),
}
#: the add_row code object ran; nothing else did
RAN = {("fleet/table.py", 10)}
#: a keep table with one correct entry per unrun function
CLEAN = {
    "fleet/table.py:FleetTable.remove": "k2",
    "rpm/package.py:Package.__str__": "k5",
    "yum/client.py:YumClient.erase": "k4",
}


def test_a_clean_input_has_no_problems():
    assert verdict(FUNCTIONS, RAN, CLEAN) == []


def test_an_unknown_rule_is_reported_and_defer_is_one():
    for rule in ("defer", "k3"):
        keep = {**CLEAN, "yum/client.py:YumClient.erase": rule}
        assert verdict(FUNCTIONS, RAN, keep) == [
            f"yum/client.py:YumClient.erase: unknown rule {rule!r}"
        ]


def test_a_stale_entry_is_reported():
    ran = RAN | {("yum/client.py", 70)}
    assert verdict(FUNCTIONS, ran, CLEAN) == [
        "yum/client.py:YumClient.erase: stale keep entry (a flow runs it)"
    ]
    gone = {**CLEAN, "yum/client.py:YumClient.list_available": "k4"}
    assert verdict(FUNCTIONS, RAN, gone) == [
        "yum/client.py:YumClient.list_available: stale keep entry (no such function)"
    ]


def test_an_unlisted_unrun_function_is_reported():
    keep = {k: v for k, v in CLEAN.items() if k != "fleet/table.py:FleetTable.remove"}
    assert verdict(FUNCTIONS, RAN, keep) == [
        "fleet/table.py:FleetTable.remove: no flow runs it and no keep rule covers it"
    ]


def test_k5_on_a_name_that_is_no_protocol_method_is_refused():
    keep = {**CLEAN, "yum/client.py:YumClient.erase": "k5"}
    assert verdict(FUNCTIONS, RAN, keep) == [
        "yum/client.py:YumClient.erase: k5 is for protocol methods only"
    ]
