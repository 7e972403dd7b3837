"""Trace-schema validation CLI::

    python -m repro.sim trace.jsonl [more.jsonl ...]

Exits non-zero if any file fails to validate — the CI gate that keeps
every emitted event honest against ``repro.sim.trace.EVENT_SCHEMA``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from .trace import validate_jsonl


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description="Validate JSONL simulation traces against the event schema.",
    )
    parser.add_argument("traces", nargs="+", help="JSONL trace files to validate")
    args = parser.parse_args(argv)

    failures = 0
    for name in args.traces:
        path = pathlib.Path(name)
        if not path.exists():
            print(f"{name}: no such file")
            failures += 1
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            print(f"{name}: not UTF-8 text (byte {exc.start}: {exc.reason})")
            failures += 1
            continue
        count, problems = validate_jsonl(text)
        if problems:
            failures += 1
            print(f"{name}: {count} events, {len(problems)} problem(s)")
            for problem in problems[:20]:
                print(f"  {problem}")
            if len(problems) > 20:
                print(f"  ... and {len(problems) - 20} more")
        else:
            print(f"{name}: OK ({count} events)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
