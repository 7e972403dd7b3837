"""The analysis driver: run every pass, collect, filter, and render.

:func:`analyze` is the single entry point: definition in,
:class:`AnalysisResult` out.  The engine owns cross-cutting concerns the
passes should not care about — per-rule enable/disable, baseline
suppression, deterministic ordering, text/JSON rendering, and the exit-code
contract CI gates on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from .diagnostic import Diagnostic, Severity
from .registry import RULES, AnalysisConfig, Baseline
from .spec import ClusterDefinition
from . import passes as _passes

__all__ = ["AnalysisResult", "analyze", "ANALYSIS_SCHEMA"]

#: Schema tag for JSON output; bump only on incompatible change.
ANALYSIS_SCHEMA = "repro.analyze/v1"

#: Ordered (subsystem, pass) list — order is part of the output contract.
_PASS_ORDER: list[tuple[str, Callable]] = [
    ("hardware", _passes.hardware.run),
    ("network", _passes.network.run),
    ("kickstart", _passes.kickstart.run),
    ("repo", _passes.repos.run),
    ("rpm", _passes.rpmdeps.run),
    ("scheduler", _passes.scheduler.run),
]


@dataclass
class AnalysisResult:
    """Everything one run of the analyzer found."""

    definition_name: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    suppressed: list[Diagnostic] = field(default_factory=list)
    fail_on: Severity = Severity.ERROR

    # -- queries -----------------------------------------------------------

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> list[Diagnostic]:
        return self.by_severity(Severity.INFO)

    @property
    def failed(self) -> bool:
        """True if any kept diagnostic is at/above the failure threshold."""
        return any(d.severity.at_least(self.fail_on) for d in self.diagnostics)

    # -- rendering ---------------------------------------------------------

    def summary_line(self) -> str:
        counts = (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info(s)"
        )
        if self.suppressed:
            counts += f", {len(self.suppressed)} baseline-suppressed"
        return f"{self.definition_name}: {counts}"

    def render_text(self) -> str:
        lines = [self.summary_line()]
        lines += [d.render() for d in self.diagnostics]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-stable document (schema documented in docs/ANALYZE.md)."""
        return {
            "schema": ANALYSIS_SCHEMA,
            "definition": self.definition_name,
            "fail_on": self.fail_on.value,
            "counts": {
                "error": len(self.errors),
                "warning": len(self.warnings),
                "info": len(self.infos),
                "suppressed": len(self.suppressed),
            },
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "suppressed": [d.to_dict() for d in self.suppressed],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def analyze(
    definition: ClusterDefinition,
    *,
    config: AnalysisConfig | None = None,
    baseline: Baseline | None = None,
) -> AnalysisResult:
    """Run every registered pass over ``definition``.

    ``config`` selects rules and the failure threshold; ``baseline`` moves
    known findings out of the report (they remain visible in
    ``result.suppressed`` and the JSON document).
    """
    config = config or AnalysisConfig()
    collected: list[Diagnostic] = []

    for subsystem, run_pass in _PASS_ORDER:

        def emit(
            code: str,
            message: str,
            *,
            location: str = "",
            severity: Severity | None = None,
            hint: str | None = None,
            _subsystem: str = subsystem,
        ) -> None:
            rule = RULES.get(code)
            if not config.is_enabled(code):
                return
            collected.append(
                Diagnostic(
                    code=code,
                    severity=severity or rule.severity,
                    message=message,
                    subsystem=rule.subsystem or _subsystem,
                    location=location,
                    hint=rule.hint if hint is None else hint,
                )
            )

        run_pass(definition, emit)

    collected.sort(key=lambda d: d.sort_key)
    if baseline is not None:
        kept, suppressed = baseline.split(collected)
    else:
        kept, suppressed = collected, []
    return AnalysisResult(
        definition_name=definition.name,
        diagnostics=kept,
        suppressed=suppressed,
        fail_on=config.fail_on,
    )
