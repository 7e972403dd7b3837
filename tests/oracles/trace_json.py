"""The ``json.dumps`` trace serialiser, kept verbatim as a reference oracle.

:func:`to_jsonl` is the body ``TraceBus.to_jsonl`` had before it formatted
each line with a formatter generated per event shape (``self`` is the bus).
``tests/test_sim_kernel.py`` asserts the bus's export equals this byte for
byte over random events and adversarial values.
"""

from __future__ import annotations

import json

from repro.sim import TraceBus

__all__ = ["to_jsonl"]


def to_jsonl(self: TraceBus) -> str:
    """Oracle for :meth:`TraceBus.to_jsonl`: one ``json.dumps`` per event."""
    dumps = json.dumps
    return "".join(
        dumps(
            {"seq": seq, "t": t, "kind": kind, "sub": sub, "data": data},
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n"
        for seq, t, kind, sub, data in self.events
    )
