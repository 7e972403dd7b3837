"""simlint: run the ``SL*`` source rules over the repro source tree itself.

:func:`analyze_source` is to Python files what
:func:`~repro.analyze.engine.analyze` is to cluster definitions — same
:class:`~repro.analyze.diagnostic.Diagnostic` type, same
:class:`~repro.analyze.registry.RULES` registry, same baseline machinery,
one :class:`~repro.analyze.engine.AnalysisResult` out — so the CLI,
rendering, and CI gating come for free.

Configuration lives in ``pyproject.toml`` under ``[tool.simlint]``::

    [tool.simlint.per-path]
    # glob (posix, repo-relative) -> rule codes disabled under it
    "src/repro/linpack/*" = ["SL101"]   # measures real hardware by design

Every opt-out should carry a justification comment next to it — the table
is the source-rule analogue of a baseline file, reviewed in diffs.
"""

from __future__ import annotations

import ast
import fnmatch
import pathlib
from dataclasses import dataclass, field

from .diagnostic import Diagnostic, Severity
from .registry import RULES, AnalysisConfig, Baseline
from .engine import AnalysisResult
from . import passes as _passes

__all__ = [
    "SimlintConfig",
    "analyze_source",
    "iter_source_files",
    "SOURCE_RESULT_NAME",
]

#: ``AnalysisResult.definition_name`` for a source run.
SOURCE_RESULT_NAME = "simlint"

#: Ordered (subsystem, pass) list for source analysis — like the engine's
#: ``_PASS_ORDER``, the order is part of the output contract.
_SOURCE_PASS_ORDER = [
    ("source", _passes.source_determinism.run),
    ("source", _passes.source_memos.run),
]


@dataclass(frozen=True)
class SimlintConfig:
    """Per-path rule opt-outs from ``[tool.simlint]``.

    ``per_path`` maps a glob pattern to the rule codes disabled for files
    matching it.  Patterns match the posix-style path as passed on the
    command line (typically repo-relative, ``src/repro/linpack/hpl.py``).
    """

    per_path: dict[str, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def from_pyproject(cls, path: str | pathlib.Path) -> "SimlintConfig":
        """Load ``[tool.simlint]`` from a pyproject file (missing table or
        missing file → empty config).  A table of the wrong shape raises
        :class:`ValueError`, as a bad rule code does."""
        import tomllib

        path = pathlib.Path(path)
        if not path.exists():
            return cls()
        table = tomllib.loads(path.read_text())
        for key in ("tool", "simlint", "per-path"):
            table = table.get(key, {})
            if not isinstance(table, dict):
                raise ValueError(
                    f"[tool.simlint] {key!r}: expected a table, got "
                    f"{type(table).__name__}"
                )
        per_path = {}
        for pattern, codes in table.items():
            if not isinstance(codes, list):
                raise ValueError(
                    f"[tool.simlint.per-path] {pattern!r}: expected a list "
                    f"of rule codes, got {type(codes).__name__}"
                )
            unknown = [c for c in codes if c not in RULES]
            if unknown:
                raise ValueError(
                    f"[tool.simlint.per-path] {pattern!r} disables unknown "
                    f"rule code(s): {sorted(unknown)}"
                )
            per_path[pattern] = frozenset(codes)
        return cls(per_path=per_path)

    def disabled_for(self, path: str) -> frozenset[str]:
        """Rule codes opted out for one file path."""
        posix = pathlib.PurePath(path).as_posix()
        disabled: set[str] = set()
        for pattern, codes in self.per_path.items():
            if fnmatch.fnmatch(posix, pattern):
                disabled |= codes
        return frozenset(disabled)


def iter_source_files(paths: list[str | pathlib.Path]) -> list[pathlib.Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        else:
            out.append(path)
    # de-dup while keeping the deterministic sorted-walk order
    seen: set[pathlib.Path] = set()
    unique = []
    for path in out:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def analyze_source(
    paths: list[str | pathlib.Path],
    *,
    config: AnalysisConfig | None = None,
    simlint: SimlintConfig | None = None,
    baseline: Baseline | None = None,
) -> AnalysisResult:
    """Run every SL source pass over ``paths`` (files or directories).

    A file that fails to read or parse is itself a finding (``SL000``,
    error severity), never an exception — CI must report, not crash.
    """
    config = config or AnalysisConfig()
    simlint = simlint or SimlintConfig()
    collected: list[Diagnostic] = []

    for path in iter_source_files(paths):
        rel = pathlib.PurePath(path).as_posix()
        path_disabled = simlint.disabled_for(rel)

        def emit(
            code: str,
            message: str,
            *,
            location: str = "",
            severity: Severity | None = None,
            hint: str | None = None,
            _disabled: frozenset[str] = path_disabled,
        ) -> None:
            if not config.is_enabled(code) or code in _disabled:
                return
            rule = RULES.get(code)
            collected.append(
                Diagnostic(
                    code=code,
                    severity=severity or rule.severity,
                    message=message,
                    subsystem=rule.subsystem,
                    location=location,
                    hint=rule.hint if hint is None else hint,
                )
            )

        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            emit("SL000", f"cannot analyze: {exc}", location=rel)
            continue
        for _subsystem, run_pass in _SOURCE_PASS_ORDER:
            run_pass(tree, rel, emit)

    collected.sort(key=lambda d: d.sort_key)
    if baseline is not None:
        kept, suppressed = baseline.split(collected)
    else:
        kept, suppressed = collected, []
    return AnalysisResult(
        definition_name=SOURCE_RESULT_NAME,
        diagnostics=kept,
        suppressed=suppressed,
        fail_on=config.fail_on,
    )
