"""Whole-flow benchmark for the XCBC/XNIT reproduction.

Four workloads, each a complete paper flow driven through ``repro``'s
public entry points only (see :mod:`bench.workloads`); end-to-end metrics
from an untraced run and per-layer metrics from a separate traced run
whose spans are recorded from here, around the calls into each layer
(:mod:`bench.spans`).  ``bench/README.md`` has the metric tables, the
predicted interactions, and the rules for using the numbers.

The package imports ``repro`` from the checkout's own ``src/`` — never
from an installed copy — so the numbers always describe the code beside
it.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout root (``bench/`` lives directly under it).
ROOT = Path(__file__).resolve().parent.parent
#: The program under test.
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
