"""Trace-file validation CLI::

    python -m repro.sim trace.jsonl [more.jsonl ...]

Exits non-zero if any file is not a valid trace — schema, ``seq`` order
and canonical bytes, as ``repro.sim.trace.validate_jsonl`` defines them.
A file that cannot be read or is not UTF-8 is a failure for that file;
the rest are still checked.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from .trace import validate_jsonl


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description="Validate JSONL simulation trace files.",
    )
    parser.add_argument("traces", nargs="+", help="JSONL trace files to validate")
    args = parser.parse_args(argv)

    failures = 0
    for name in args.traces:
        try:
            # Bytes, not read_text: newline translation would hide a CRLF.
            text = pathlib.Path(name).read_bytes().decode("utf-8")
        except OSError as exc:
            print(f"{name}: cannot read ({exc.strerror or exc})")
            failures += 1
            continue
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
