"""The rule catalogue, per-rule configuration, and baseline suppression.

Every check the analyzer can perform is declared up front as a
:class:`Rule` with a stable code, default severity, and fix hint, and
registered in the process-wide :data:`RULES` registry.  Declaring rules as
data (rather than burying them in pass logic) is what makes
``cluster-lint --list-rules``, per-rule enable/disable, and the
docs/ANALYZE.md catalogue possible without drift.

:class:`Baseline` implements suppression files: known findings, recorded by
fingerprint with a reason, that CI should stop reporting — the standard
mechanism for adopting a linter on a codebase with pre-existing debt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import ReproError
from .diagnostic import Diagnostic, Severity

__all__ = [
    "Rule",
    "RuleRegistry",
    "RULES",
    "rule",
    "AnalysisConfig",
    "Baseline",
    "BASELINE_SCHEMA",
]

#: Schema tag written into baseline files; bump on incompatible change.
BASELINE_SCHEMA = "repro.analyze.baseline/v1"


@dataclass(frozen=True)
class Rule:
    """One registered check.

    ``code`` is stable forever (``KS101`` means the same thing in every
    release); ``summary`` is what the rule looks for; ``hint`` is the
    default fix advice attached to its diagnostics.
    """

    code: str
    subsystem: str
    severity: Severity
    summary: str
    hint: str = ""


class RuleRegistry:
    """All known rules, keyed by code."""

    def __init__(self) -> None:
        self._rules: dict[str, Rule] = {}

    def register(self, new_rule: Rule) -> Rule:
        if new_rule.code in self._rules:
            raise ValueError(f"duplicate rule code {new_rule.code}")
        self._rules[new_rule.code] = new_rule
        return new_rule

    def get(self, code: str) -> Rule:
        try:
            return self._rules[code]
        except KeyError:
            raise KeyError(f"unknown rule code {code!r}") from None

    def __contains__(self, code: str) -> bool:
        return code in self._rules

    def codes(self) -> list[str]:
        return sorted(self._rules)

    def all_rules(self) -> list[Rule]:
        """Every rule, sorted by code."""
        return [self._rules[c] for c in self.codes()]

    def subsystems(self) -> list[str]:
        return sorted({r.subsystem for r in self._rules.values()})


#: The process-wide registry; pass modules populate it at import time.
RULES = RuleRegistry()


def rule(
    code: str,
    subsystem: str,
    severity: Severity,
    summary: str,
    hint: str = "",
) -> Rule:
    """Declare and register a rule in :data:`RULES` (module-level helper)."""
    return RULES.register(Rule(code, subsystem, severity, summary, hint))


@dataclass(frozen=True)
class AnalysisConfig:
    """Which rules run and what severity gates a failure.

    ``only`` (when non-None) whitelists codes; ``disabled`` blacklists them
    (applied after ``only``).  ``fail_on`` is the minimum severity that makes
    :meth:`AnalysisResult.exit_code` non-zero — CI uses the default (error).
    """

    only: frozenset[str] | None = None
    disabled: frozenset[str] = frozenset()
    fail_on: Severity = Severity.ERROR

    def is_enabled(self, code: str) -> bool:
        if self.only is not None and code not in self.only:
            return False
        return code not in self.disabled


@dataclass
class Baseline:
    """Accepted findings that should not be re-reported.

    Maps diagnostic fingerprints (``CODE@location``) to the reason they are
    tolerated.  Stored as JSON so the file is diffable and reviewable.
    """

    suppressions: dict[str, str] = field(default_factory=dict)

    def matches(self, diag: Diagnostic) -> bool:
        return diag.fingerprint in self.suppressions

    def add(self, diag: Diagnostic, reason: str = "accepted by baseline") -> None:
        self.suppressions[diag.fingerprint] = reason

    def split(
        self, diagnostics: list[Diagnostic]
    ) -> tuple[list[Diagnostic], list[Diagnostic]]:
        """Partition into (kept, suppressed)."""
        kept = [d for d in diagnostics if not self.matches(d)]
        suppressed = [d for d in diagnostics if self.matches(d)]
        return kept, suppressed

    # -- staleness ---------------------------------------------------------

    def stale_fingerprints(
        self, registry: "RuleRegistry | None" = None
    ) -> list[str]:
        """Fingerprints whose rule code no longer exists in ``registry``.

        A stale entry can never match a diagnostic again — it is dead
        weight that hides the fact the debt it recorded was retired (or the
        rule renamed).  The CLI warns about these on load and
        ``--prune-baseline`` rewrites the file without them.
        """
        reg = RULES if registry is None else registry
        return sorted(
            fp for fp in self.suppressions if fp.split("@", 1)[0] not in reg
        )

    def pruned(
        self, registry: "RuleRegistry | None" = None
    ) -> tuple["Baseline", list[str]]:
        """A copy without stale entries, plus the fingerprints dropped."""
        stale = set(self.stale_fingerprints(registry))
        kept = {
            fp: reason
            for fp, reason in self.suppressions.items()
            if fp not in stale
        }
        return Baseline(suppressions=kept), sorted(stale)

    # -- serialisation -----------------------------------------------------

    def to_text(self) -> str:
        payload = {
            "schema": BASELINE_SCHEMA,
            "suppressions": [
                {"fingerprint": fp, "reason": reason}
                for fp, reason in sorted(self.suppressions.items())
            ],
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Baseline":
        """Parse a baseline file; malformed input raises :class:`ReproError`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReproError(f"baseline is not valid JSON: {exc.msg}") from exc
        schema = payload.get("schema") if isinstance(payload, dict) else None
        if schema != BASELINE_SCHEMA:
            raise ReproError(
                f"not a baseline file (schema {schema!r}, "
                f"expected {BASELINE_SCHEMA!r})"
            )
        entries = payload.get("suppressions", [])
        if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("fingerprint"), str)
            for e in entries
        ):
            raise ReproError("baseline suppressions must be fingerprint objects")
        return cls(suppressions={e["fingerprint"]: e.get("reason", "") for e in entries})

    @classmethod
    def from_diagnostics(
        cls, diagnostics: list[Diagnostic], reason: str = "accepted by baseline"
    ) -> "Baseline":
        baseline = cls()
        for diag in diagnostics:
            baseline.add(diag, reason)
        return baseline
