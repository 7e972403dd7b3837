"""Structured diagnostics: the unit of output of every analyzer pass.

A :class:`Diagnostic` is one finding: a stable rule code (``KS101``), a
severity, a human-readable message, and enough location context to act on it
without re-running the analysis.  ``str(diag)`` is deliberately just the
message, so a caller that wants plain strings maps ``str`` over the
diagnostics; the structured fields ride along for callers that want them.

This module has no dependencies on the rest of the package so that any
subsystem (rpm, rocks, yum, ...) can produce diagnostics without import
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["Severity", "Diagnostic"]


class Severity(str, Enum):
    """How bad a finding is.

    * ``ERROR`` — the definition will fail at deploy time (CI gates on these);
    * ``WARNING`` — deploys, but almost certainly not what was intended;
    * ``INFO`` — worth knowing; never fails a gate by default.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Ordering key: lower is more severe."""
        return {"error": 0, "warning": 1, "info": 2}[self.value]

    def at_least(self, other: "Severity") -> bool:
        """True if this severity is as severe as ``other`` or more so."""
        return self.rank <= other.rank


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding.

    ``location`` is a subsystem-scoped path such as ``kickstart:node/hpc`` or
    ``repo:[xsede]`` — stable across runs so baselines can match on it.
    ``hint`` says what to do about the problem, not just what the problem is.
    """

    code: str
    severity: Severity
    message: str
    subsystem: str = ""
    location: str = ""
    hint: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable identity used by baseline suppression files."""
        return f"{self.code}@{self.location}" if self.location else self.code

    def to_dict(self) -> dict:
        """JSON-stable representation (schema documented in docs/ANALYZE.md)."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "subsystem": self.subsystem,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        """Full one-line text rendering for CLI output."""
        where = f" {self.location}:" if self.location else ""
        line = f"{self.severity.value:<7} {self.code}{where} {self.message}"
        if self.hint:
            line += f"\n        hint: {self.hint}"
        return line

    @property
    def sort_key(self) -> tuple:
        """Severity first, then code, then location — deterministic output."""
        return (self.severity.rank, self.code, self.location, self.message)

    def __str__(self) -> str:
        return self.message
