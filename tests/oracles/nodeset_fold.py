"""The per-name fold ``NodeSet.from_names`` replaced, kept as a reference oracle.

``NodeSet.from_names`` groups ranks per pattern and builds one ``RangeSet``
per pattern.  Before that, it called ``add`` once per name, which builds a
one-member ``RangeSet``, unions it into the pattern's set and re-sorts the
whole interval list: quadratic on scattered names.  That loop lives here;
``tests/test_fleet.py`` holds the one-pass fold equal to it (same
``str()``, same iteration order, same ``FleetError``).
"""

from __future__ import annotations

from typing import Iterable

from repro.fleet import NodeSet

__all__ = ["fold_by_add"]


def fold_by_add(names: Iterable[str]) -> NodeSet:
    ns = NodeSet()
    for name in names:
        ns.add(name)
    return ns
