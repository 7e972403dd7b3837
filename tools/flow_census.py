#!/usr/bin/env python3
"""List the functions of ``src/repro`` that no flow runs.

A *flow* is a row of ``tools/flows.py`` — every example's ``main()``, each
bench workload at smoke size, ``python -m repro.paper``, every flag of the
argparse front ends, every ``ClusterShell`` verb and each flow the
determinism gate records — run in-process under :func:`sys.setprofile`,
with its reference run where it has one.

A function (a ``def`` at module or class level; closures belong to their
enclosing function) outside the frozen packages that none of these calls
is *unexecuted*.  It may stay only under a keep rule, recorded in
``tools/flow_census_keep.txt`` as ``path:qualname  kN``:

- ``k1``: ``bench/`` names it (``bench/spans.py`` wraps it by name);
- ``k2``: safety code — recovery, fault handlers, repair paths, error
  raisers, the ``state_dict`` checkpoint protocol;
- ``k4``: a capability PAPER.md or DESIGN.md names;
- ``k5``: a value-type protocol method or a ``__post_init__`` validator;
- ``k6``: a frozen package (``pfs``, ``htc``, ``grid``, ``mpi``) calls it.

A function no rule keeps is deleted, together with the tests whose subject
it is.  A function that only a kept function calls (or an untaken branch of
a running one) carries its caller's rule, and a property's getter and
setter count as one function.
Run from anywhere; the tool writes nothing under the checkout::

    python tools/flow_census.py            # per-package counts, then every
                                           # unexecuted function and its rule
    python tools/flow_census.py --check    # exit 1 on an unexecuted function
                                           # the keep list does not name, or
                                           # a keep entry a flow now runs
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import pathlib
import sys
import tempfile
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
KEEP = ROOT / "tools" / "flow_census_keep.txt"
FROZEN = ("pfs", "htc", "grid", "mpi")
RULES = ("k1", "k2", "k4", "k5", "k6")
PROTOCOL = frozenset({
    "__eq__", "__hash__", "__repr__", "__str__", "__bool__", "__len__",
    "__iter__", "__contains__", "__post_init__",
})


# -- what exists ----------------------------------------------------------------


def _defs(body, prefix, out, path):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            # a property's setter shares its getter's qualname: one function
            out[(path, first)] = (prefix + node.name, node.end_lineno - first + 1)
        elif isinstance(node, ast.ClassDef):
            _defs(node.body, f"{prefix}{node.name}.", out, path)
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for block in ("body", "orelse", "finalbody"):
                _defs(getattr(node, block, []), prefix, out, path)
            for handler in getattr(node, "handlers", []):
                _defs(handler.body, prefix, out, path)


def census_functions() -> dict[str, tuple[set[tuple[str, int]], int]]:
    """``path:qualname -> (code keys, lines)`` for every function outside
    the frozen packages; a code key is ``(path under src/repro, first
    line)``, and a property has one per accessor."""
    defs: dict[tuple[str, int], tuple[str, int]] = {}
    for file in sorted(PACKAGE.rglob("*.py")):
        path = file.relative_to(PACKAGE).as_posix()
        if path.split("/")[0] in FROZEN:
            continue
        _defs(ast.parse(file.read_text(encoding="utf-8")).body, "", defs, path)
    out: dict[str, tuple[set[tuple[str, int]], int]] = {}
    for (path, line), (qual, length) in defs.items():
        keys, total = out.get(f"{path}:{qual}", (set(), 0))
        out[f"{path}:{qual}"] = (keys | {(path, line)}, total + length)
    return out


# -- what runs --------------------------------------------------------------------


def executed() -> tuple[set[tuple[str, int]], list[tuple[str, float]]]:
    """Run every flow once; ``(path, first line)`` of each code object in
    ``src/repro`` any of them called, and each flow's wall time."""
    seen: set = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    times = []
    here = os.getcwd()
    os.chdir(ROOT)
    threading.setprofile(profile)
    sys.setprofile(profile)  # on before the imports: registration runs there
    try:
        from flows import FLOWS

        with tempfile.TemporaryDirectory() as scratch:
            for index, flow in enumerate(FLOWS):
                started = time.perf_counter()
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    for side, call in enumerate((flow.run, flow.reference)):
                        if call is not None:
                            tmp = pathlib.Path(scratch) / f"{index}-{side}"
                            tmp.mkdir()
                            call(tmp)
                times.append((flow.name, time.perf_counter() - started))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        os.chdir(here)
    prefix = str(PACKAGE) + os.sep
    return {
        (code.co_filename[len(prefix):].replace(os.sep, "/"), code.co_firstlineno)
        for code in seen
        if code.co_filename.startswith(prefix)
    }, times


# -- the verdict ---------------------------------------------------------------------


def load_keep() -> dict[str, str]:
    keep = {}
    for raw in KEEP.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            name, rule = line.split()
            keep[name] = rule
    return keep


def unexecuted(functions, ran) -> dict[str, int]:
    """``path:qualname -> lines`` of every function no flow called."""
    return {
        name: length for name, (keys, length) in functions.items()
        if not keys & ran
    }


def _spanned(name: str, spans: str) -> bool:
    """``bench/spans.py`` names the function's module and attribute (the
    attribute may be re-bound on a subclass, as ``SiteChunkCache`` does)."""
    path, qual = name.split(":")
    module = path.removesuffix(".py").replace("/", ".")
    return f'"{module}"' in spans and f'{qual.rsplit(".", 1)[-1]}"' in spans


def verdict(functions, ran, keep) -> list[str]:
    """Why ``--check`` fails, one line each (empty when it passes)."""
    problems = []
    unrun = unexecuted(functions, ran)
    spans = (ROOT / "bench" / "spans.py").read_text(encoding="utf-8")
    for name, rule in sorted(keep.items()):
        if rule not in RULES:
            problems.append(f"{name}: unknown rule {rule!r}")
        elif name not in functions:
            problems.append(f"{name}: stale keep entry (no such function)")
        elif name not in unrun:
            problems.append(f"{name}: stale keep entry (a flow runs it)")
        elif rule == "k5" and name.rsplit(".", 1)[-1] not in PROTOCOL:
            problems.append(f"{name}: k5 is for protocol methods only")
        elif rule == "k1" and not _spanned(name, spans):
            problems.append(f"{name}: k1 but bench/spans.py does not name it")
    for name in sorted(unrun):
        if name not in keep:
            problems.append(f"{name}: no flow runs it and no keep rule covers it")
    return problems


def report(functions, ran, keep, times) -> str:
    unrun = unexecuted(functions, ran)
    rows: dict[str, list[int]] = {}
    for name in functions:
        path = name.split(":")[0]
        row = rows.setdefault(path.split("/")[0], [0, 0, 0, 0])
        row[0] += 1
        if name in unrun:
            row[1] += 1
            row[2] += unrun[name]
            row[3] += name in keep
    lines = [f"{'package':<18}{'functions':>10}{'unrun':>7}{'lines':>7}{'kept':>6}"]
    for package, (total, count, length, kept) in sorted(rows.items()):
        lines.append(f"{package:<18}{total:>10}{count:>7}{length:>7}{kept:>6}")
    total = [sum(col) for col in zip(*rows.values())]
    lines.append(f"{'total':<18}{total[0]:>10}{total[1]:>7}{total[2]:>7}{total[3]:>6}")
    lines.append("")
    for name, length in sorted(unrun.items()):
        lines.append(f"{keep.get(name, '--'):<6}{length:>4}  {name}")
    lines.append("")
    lines.append(f"{len(times)} flows in {sum(t for _, t in times):.0f} s")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="List the src/repro functions no flow runs."
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail on an unexecuted function without a keep rule, "
        "or on a stale keep entry",
    )
    args = parser.parse_args(argv)
    functions = census_functions()
    ran, times = executed()
    keep = load_keep()
    if not args.check:
        print(report(functions, ran, keep, times), end="")
        return 0
    problems = verdict(functions, ran, keep)
    for problem in problems:
        print(problem)
    print(f"{len(functions)} functions, {len(unexecuted(functions, ran))} run "
          f"in no flow, {len(keep)} kept by a rule; {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
