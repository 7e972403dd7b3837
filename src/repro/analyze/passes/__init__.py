"""Analyzer passes: one module per declarative layer, plus the simlint
``source_*`` family that lints the repro source tree itself.

Importing this package registers every rule in
:data:`repro.analyze.registry.RULES`; the engine holds the ordered pass
list for definition passes and :mod:`repro.analyze.source` the one for
source passes.  Definition passes expose ``run(definition, emit)``; source
passes expose ``run(tree, path, emit)`` over a parsed :mod:`ast` module —
``emit`` is the engine-provided diagnostic sink either way.
"""

from .. import txn as _txn  # noqa: F401 - registers the TX7xx catalogue
from . import hardware, kickstart, network, repos, rpmdeps, scheduler
from . import source_determinism, source_memos

__all__ = [
    "kickstart",
    "repos",
    "rpmdeps",
    "network",
    "scheduler",
    "hardware",
    "source_determinism",
    "source_memos",
]
