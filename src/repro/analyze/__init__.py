"""repro.analyze — pre-flight static analysis ("cluster-lint").

Inspects cluster definitions *without executing a deployment* and emits
structured :class:`~repro.analyze.diagnostic.Diagnostic` records with stable
rule codes, so misconfiguration is caught before an expensive provisioning
run instead of mid-install.  See docs/ANALYZE.md for the rule catalogue.

Usage::

    from repro.analyze import ClusterDefinition, analyze
    result = analyze(ClusterDefinition(name="site", graph=graph, ...))
    print(result.render_text())

or from a shell: ``python -m repro.analyze examples/quickstart.py``.

The :mod:`diagnostic` and :mod:`registry` submodules import eagerly (other
subsystems depend on them without cycles); the heavier pieces — passes,
engine, CLI — load lazily on first attribute access.
"""

from __future__ import annotations

from .diagnostic import Diagnostic, Severity
from .registry import RULES, AnalysisConfig, Baseline, Rule, RuleRegistry

__all__ = [
    "Diagnostic",
    "Severity",
    "Rule",
    "RuleRegistry",
    "RULES",
    "AnalysisConfig",
    "Baseline",
    "ClusterDefinition",
    "HardwarePlan",
    "AnalysisResult",
    "analyze",
    "analyze_source",
    "SimlintConfig",
    "main",
    "main_simlint",
]

#: Lazy attribute -> (module, name).  Keeps ``import repro.analyze.diagnostic``
#: cheap and cycle-free for subsystems (rpm.transaction) that only need the
#: diagnostic vocabulary.
_LAZY = {
    "ClusterDefinition": ("repro.analyze.spec", "ClusterDefinition"),
    "HardwarePlan": ("repro.analyze.spec", "HardwarePlan"),
    "AnalysisResult": ("repro.analyze.engine", "AnalysisResult"),
    "analyze": ("repro.analyze.engine", "analyze"),
    "analyze_source": ("repro.analyze.source", "analyze_source"),
    "SimlintConfig": ("repro.analyze.source", "SimlintConfig"),
    "main": ("repro.analyze.cli", "main"),
    "main_simlint": ("repro.analyze.cli", "main_simlint"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value

