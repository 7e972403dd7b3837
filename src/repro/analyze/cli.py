"""The ``cluster-lint`` / ``simlint`` command line.

Two modes share one flag surface, one rule registry, and one exit-code
contract:

* **definition mode** (default) lints cluster-definition files — any
  Python file exposing a zero-argument ``cluster_definition()`` callable
  or a module-level ``DEFINITION`` holding a
  :class:`~repro.analyze.spec.ClusterDefinition`; every file under
  ``examples/`` does.
* **source mode** (``--source``, or the ``simlint`` console script) runs
  the ``SL*`` rules over Python source trees (default: ``src/repro``),
  honouring ``[tool.simlint]`` per-path opt-outs from ``pyproject.toml``
  and optionally replaying a trace JSONL (``--check-trace``).

Exit codes follow linter convention so CI can gate directly on the
process status:

* ``0`` — no finding at/above the failure threshold (default: error);
* ``1`` — at least one gating finding;
* ``2`` — usage or definition-load failure.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import pathlib
import sys

from ..errors import ReproError
from .diagnostic import Severity
from .engine import AnalysisResult, analyze
from .registry import RULES, AnalysisConfig, Baseline
from .spec import ClusterDefinition

__all__ = ["main", "main_simlint", "load_definitions"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


class DefinitionLoadError(Exception):
    """A definition file could not be loaded or carries no definition."""


def load_definitions(path: str | pathlib.Path) -> list[ClusterDefinition]:
    """Import a Python file and pull its cluster definition(s) out.

    Looks for ``cluster_definition()`` (callable, may return one definition
    or a list) first, then a module-level ``DEFINITION``.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise DefinitionLoadError(f"{path}: no such file")
    spec = importlib.util.spec_from_file_location(
        f"cluster_lint_{path.stem}", path
    )
    if spec is None or spec.loader is None:
        raise DefinitionLoadError(f"{path}: not an importable Python file")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        raise DefinitionLoadError(f"{path}: import failed: {exc}") from exc

    source = getattr(module, "cluster_definition", None)
    if callable(source):
        try:
            produced = source()
        except Exception as exc:
            raise DefinitionLoadError(
                f"{path}: cluster_definition() raised: {exc}"
            ) from exc
    else:
        produced = getattr(module, "DEFINITION", None)
        if produced is None:
            raise DefinitionLoadError(
                f"{path}: defines neither cluster_definition() nor DEFINITION"
            )
    definitions = list(produced) if isinstance(produced, (list, tuple)) else [produced]
    for definition in definitions:
        if not isinstance(definition, ClusterDefinition):
            raise DefinitionLoadError(
                f"{path}: expected ClusterDefinition, got "
                f"{type(definition).__name__}"
            )
    return definitions


def _list_rules() -> str:
    lines = ["CODE    SEVERITY  SUBSYSTEM   SUMMARY"]
    for rule in RULES.all_rules():
        lines.append(
            f"{rule.code:<8}{rule.severity.value:<10}{rule.subsystem:<12}"
            f"{rule.summary}"
        )
    return "\n".join(lines)


def _build_parser(prog: str = "cluster-lint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Pre-flight static analysis of cluster definitions, or (with "
            "--source) of the repro source tree itself."
        ),
    )
    parser.add_argument(
        "files",
        nargs="*",
        help=(
            "definition files exposing cluster_definition(); with --source, "
            "Python files/directories to lint (default: src/repro)"
        ),
    )
    parser.add_argument(
        "--source",
        action="store_true",
        help="run the SL* source rules (simlint) instead of definition passes",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="format_",
    )
    parser.add_argument(
        "--only", default="", help="comma-separated rule codes to run exclusively"
    )
    parser.add_argument(
        "--disable", default="", help="comma-separated rule codes to skip"
    )
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "info", "never"),
        default="error",
        help="minimum severity that fails the run (default: error)",
    )
    parser.add_argument(
        "--baseline", default="", help="baseline suppression file to apply"
    )
    parser.add_argument(
        "--write-baseline",
        default="",
        metavar="PATH",
        help="write current findings to PATH as a baseline and exit 0",
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help=(
            "rewrite the --baseline file without entries whose rule code no "
            "longer exists, then continue with the pruned baseline"
        ),
    )
    parser.add_argument(
        "--check-trace",
        default="",
        metavar="PATH",
        help=(
            "(source mode) replay a trace JSONL with same-timestamp events "
            "permuted and verify it is byte-reproducible (SL302/SL303)"
        ),
    )
    parser.add_argument(
        "--pyproject",
        default="pyproject.toml",
        metavar="PATH",
        help=(
            "(source mode) pyproject file holding the [tool.simlint] "
            "per-path opt-outs (default: pyproject.toml)"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    return parser


def _parse_codes(raw: str) -> frozenset[str]:
    return frozenset(c.strip() for c in raw.split(",") if c.strip())


#: Default lint target in source mode when no paths are given.
_SOURCE_DEFAULT = "src/repro"


def main(
    argv: list[str] | None = None, *, stdout=None, prog: str = "cluster-lint"
) -> int:
    out = stdout or sys.stdout
    parser = _build_parser(prog)
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules(), file=out)
        return EXIT_CLEAN
    if not args.files and not args.source:
        parser.print_usage(out)
        print(f"{prog}: error: no definition files given", file=out)
        return EXIT_USAGE
    if args.check_trace and not args.source:
        print(f"{prog}: error: --check-trace requires --source", file=out)
        return EXIT_USAGE
    if args.prune_baseline and not args.baseline:
        print(f"{prog}: error: --prune-baseline requires --baseline", file=out)
        return EXIT_USAGE

    unknown = [
        c for c in (_parse_codes(args.only) | _parse_codes(args.disable))
        if c not in RULES
    ]
    if unknown:
        print(f"{prog}: error: unknown rule code(s): {sorted(unknown)}", file=out)
        return EXIT_USAGE

    if args.fail_on == "never":
        # A threshold below every severity: nothing can gate.
        fail_on = Severity.INFO
        never_fail = True
    else:
        fail_on = Severity(args.fail_on)
        never_fail = False
    config = AnalysisConfig(
        only=_parse_codes(args.only) or None,
        disabled=_parse_codes(args.disable),
        fail_on=fail_on,
    )

    baseline = None
    if args.baseline:
        try:
            baseline = Baseline.from_text(
                pathlib.Path(args.baseline).read_text()
            )
        except (OSError, UnicodeDecodeError, ReproError) as exc:
            print(f"{prog}: error: bad baseline: {exc}", file=out)
            return EXIT_USAGE
        stale = baseline.stale_fingerprints()
        # keep machine-readable stdout (json/sarif) clean: route the
        # warnings to stderr there, to the report stream otherwise
        warn_stream = sys.stderr if args.format_ != "text" else out
        for fingerprint in stale:
            print(
                f"{prog}: warning: baseline entry {fingerprint} references "
                f"a rule that no longer exists (stale)",
                file=warn_stream,
            )
        if args.prune_baseline:
            baseline, dropped = baseline.pruned()
            pathlib.Path(args.baseline).write_text(baseline.to_text())
            print(
                f"{prog}: pruned {len(dropped)} stale suppression(s) from "
                f"{args.baseline}",
                file=out,
            )

    results: list[AnalysisResult] = []
    if args.source:
        from .source import SimlintConfig, analyze_source

        try:
            simlint_config = SimlintConfig.from_pyproject(args.pyproject)
        except (ValueError, OSError) as exc:
            print(f"{prog}: error: bad [tool.simlint] config: {exc}", file=out)
            return EXIT_USAGE
        paths = args.files or [_SOURCE_DEFAULT]
        results.append(
            analyze_source(
                paths,
                config=config,
                simlint=simlint_config,
                baseline=baseline,
            )
        )
        if args.check_trace:
            from .passes.source_traceorder import check_trace

            trace_path = pathlib.Path(args.check_trace)
            try:
                text = trace_path.read_text()
            except OSError as exc:
                print(f"{prog}: error: cannot read trace: {exc}", file=out)
                return EXIT_USAGE
            trace_diags = check_trace(text, location=str(trace_path))
            if baseline is not None:
                kept, suppressed = baseline.split(trace_diags)
            else:
                kept, suppressed = trace_diags, []
            results.append(
                AnalysisResult(
                    definition_name=f"trace:{trace_path}",
                    diagnostics=kept,
                    suppressed=suppressed,
                    fail_on=config.fail_on,
                )
            )
    else:
        for path in args.files:
            try:
                definitions = load_definitions(path)
            except DefinitionLoadError as exc:
                print(f"{prog}: error: {exc}", file=out)
                return EXIT_USAGE
            for definition in definitions:
                results.append(
                    analyze(definition, config=config, baseline=baseline)
                )

    if args.write_baseline:
        merged = Baseline()
        for result in results:
            for diag in result.diagnostics:
                merged.add(diag, "accepted by --write-baseline")
        pathlib.Path(args.write_baseline).write_text(merged.to_text())
        print(
            f"{prog}: wrote {len(merged.suppressions)} suppression(s) "
            f"to {args.write_baseline}",
            file=out,
        )
        return EXIT_CLEAN

    if args.format_ == "json":
        document = {
            "schema": "repro.analyze.run/v1",
            "results": [r.to_dict() for r in results],
        }
        print(json.dumps(document, indent=2), file=out)
    elif args.format_ == "sarif":
        from .sarif import render_sarif

        reasons = dict(baseline.suppressions) if baseline is not None else {}
        print(
            render_sarif(
                results,
                tool_name="simlint" if args.source else prog,
                suppression_reasons=reasons,
            ),
            file=out,
        )
    else:
        for result in results:
            print(result.render_text(), file=out)

    if never_fail:
        return EXIT_CLEAN
    return (
        EXIT_FINDINGS if any(r.failed for r in results) else EXIT_CLEAN
    )


def main_simlint(argv: list[str] | None = None, *, stdout=None) -> int:
    """Entry point for the ``simlint`` console script: source mode on."""
    return main(["--source", *(argv if argv is not None else sys.argv[1:])],
                stdout=stdout, prog="simlint")
