#!/usr/bin/env python3
"""List the functions of ``src/repro`` that no flow runs.

A *flow* is one of the runs this repository exists for, driven in-process
under :func:`sys.setprofile`:

- every ``examples/*.py`` ``main()``, plus each of its flags (the
  ``--trace`` forms CI byte-compares among them);
- ``python -m repro.paper`` with and without an output directory;
- each ``python3 -m bench`` workload at smoke size, ``run()`` then
  ``finish(deep=True)``;
- every flag of the argparse front ends (``repro.faults``, ``repro.sim``,
  ``repro.analyze`` with its ``simlint`` form, ``repro.paper``);
- every ``ClusterShell`` verb, once in each usage form its error text
  documents, on the ``examples/cluster_shell_session.py`` wiring.

A function (a ``def`` at module or class level; closures belong to their
enclosing function) outside the frozen packages that none of these calls
is *unexecuted*.  It may stay only under a keep rule, recorded in
``tools/flow_census_keep.txt`` as ``path:qualname  kN``:

- ``k1``: ``bench/`` names it (``bench/spans.py`` wraps it by name);
- ``k2``: safety code — recovery, fault handlers, repair paths, error
  raisers, the ``state_dict`` checkpoint protocol;
- ``k4``: a capability PAPER.md or DESIGN.md names;
- ``k5``: a value-type protocol method or a ``__post_init__`` validator;
- ``k6``: a frozen package (``pfs``, ``htc``, ``grid``, ``mpi``) calls it;
- ``defer``: no rule keeps it, but deleting it would take tests with it that
  one change should not drop; it waits, named, for the change that may.

A function that only a kept function calls carries its caller's rule, and a
property's getter and setter count as one function.
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
import json
import os
import pathlib
import runpy
import sys
import tempfile
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
KEEP = ROOT / "tools" / "flow_census_keep.txt"
FROZEN = ("pfs", "htc", "grid", "mpi")
RULES = ("k1", "k2", "k4", "k5", "k6", "defer")
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


def _examples(tmp: pathlib.Path) -> list[tuple[str, object]]:
    flags = {
        "cosim_limulus.py": [["--seed", "7", "--trace", str(tmp / "cosim.jsonl")]],
        "fleet_wave_install.py": [["--seed", "7", "--trace", str(tmp / "fleet.jsonl")]],
        "rolling_xnit_update.py": [["--seed", "7", "--trace", str(tmp / "roll.jsonl")]],
        "update_storm.py": [
            ["--seed", "7", "--trace", str(tmp / "storm.jsonl")],
            ["--naive-style"],
        ],
        "lazy_delivery.py": [["--seed", "7", "--trace", str(tmp / "cas.jsonl")]],
        "chaos_littlefe.py": [["--seed", "7", "--trace", str(tmp / "chaos.jsonl")]],
    }
    flows = []
    for path in sorted((ROOT / "examples").glob("*.py")):
        main = runpy.run_path(str(path), run_name="flow_census")["main"]
        runs = [[], *flags[path.name]] if path.name in flags else [None]
        for argv in runs:
            call = (lambda m=main: m()) if argv is None else (lambda m=main, a=argv: m(a))
            flows.append((f"examples/{path.name} {' '.join(argv or [])}".strip(), call))
    return flows


def _bench() -> list[tuple[str, object]]:
    sys.path.insert(0, str(ROOT))
    from bench.workloads import WORKLOADS

    def workload(cls):
        instance = cls(2015, smoke=True)
        instance.finish(instance.run(), deep=True)

    return [(f"bench {name}", lambda c=cls: workload(c)) for name, cls in WORKLOADS.items()]


def _clis(tmp: pathlib.Path) -> list[tuple[str, object]]:
    from repro import paper
    from repro.analyze import cli as lint
    from repro.faults import __main__ as faults
    from repro.sim import __main__ as sim

    plan = tmp / "plan.json"
    plan.write_text(json.dumps({"name": "census", "faults": [
        {"kind": "node.crash", "target": "littlefe-iu-n1", "at_s": 300.0,
         "duration_s": 900.0},
        {"kind": "heartbeat.loss", "target": "littlefe-iu-n2", "at_s": 200.0,
         "duration_s": 60.0},
    ]}))
    ckpt, base = str(tmp / "chaos.ckpt"), str(tmp / "base.json")
    good, spaced = tmp / "cosim.jsonl", tmp / "spaced.jsonl"
    examples = sorted(str(p) for p in (ROOT / "examples").glob("*.py"))
    baseline = str(ROOT / "examples" / "lint_baseline.json")
    fixtures = str(ROOT / "tests" / "fixtures" / "simlint")

    def respace():
        spaced.write_text(good.read_text().replace(',"', ', "'))
        return sim.main([str(spaced)])

    forms = [
        ("faults", lambda: faults.main([])),
        ("faults --cluster limulus --seed 11 --trace",
         lambda: faults.main(["--cluster", "limulus", "--seed", "11",
                              "--trace", str(tmp / "chaos-cli.jsonl")])),
        ("faults --plan --jobs --no-supervise",
         lambda: faults.main(["--plan", str(plan), "--jobs", "6",
                              "--no-supervise", "--quiet"])),
        ("faults --checkpoint-every --crash-at",
         lambda: faults.main(["--seed", "3", "--checkpoint-every", "50",
                              "--checkpoint-path", ckpt, "--crash-at", "1800",
                              "--quiet"])),
        ("faults --resume",
         lambda: faults.main(["--seed", "3", "--checkpoint-path", ckpt,
                              "--resume", "--trace", str(tmp / "resumed.jsonl")])),
        ("faults --no-crash",
         lambda: faults.main(["--seed", "3", "--crash-at", "1800", "--no-crash",
                              "--trace", str(tmp / "baseline.jsonl"), "--quiet"])),
        ("faults bad flags",
         lambda: (faults.main(["--resume"]),
                  faults.main(["--checkpoint-every", "0"]))),
        ("sim", lambda: sim.main([str(good)])),
        ("sim respaced", respace),
        ("analyze examples --baseline",
         lambda: lint.main(["--baseline", baseline, *examples])),
        ("analyze --list-rules", lambda: lint.main(["--list-rules"])),
        ("analyze --write-baseline",
         lambda: lint.main(["--write-baseline", base, *examples])),
        ("analyze --baseline --prune-baseline",
         lambda: lint.main(["--baseline", base, "--prune-baseline", *examples])),
        ("analyze --format json --only --disable --fail-on",
         lambda: lint.main(["--format", "json", "--only", "RC204,NET404",
                            "--fail-on", "warning", *examples])
         + lint.main(["--format", "sarif", "--disable", "RC204",
                      "--fail-on", "info", *examples])),
        ("analyze usage errors",
         lambda: (lint.main([]), lint.main(["--prune-baseline", examples[0]]),
                  lint.main(["--disable", "ZZZ999", examples[0]]),
                  lint.main([str(tmp / "missing.py")]))),
        ("analyze --source", lambda: lint.main(["--source"])),
        ("analyze --source --format sarif --pyproject",
         lambda: lint.main(["--source", "--format", "sarif", "--pyproject",
                            str(ROOT / "pyproject.toml")])),
        ("analyze --source --format sarif fixtures",
         lambda: lint.main(["--source", "--format", "sarif", fixtures])),
        ("simlint fixtures", lambda: lint.main_simlint([fixtures])),
        ("paper", lambda: paper.main([])),
        ("paper DIR", lambda: paper.main([str(tmp / "paper")])),
    ]
    return [(f"python -m repro.{name}", call) for name, call in forms]


#: Each verb once in every usage form its error text documents, then the
#: usage errors themselves.
SHELL = [
    "hostname", "df", "cat /etc/redhat-release", "which mdrun",
    "rpm -qa", "rpm -q gromacs", "rpm -q no-such-package", "rpm",
    "yum repolist", "yum check-update", "yum install tau", "yum update",
    "yum update tau", "yum erase tau", "yum grouplist",
    "yum groupinfo xnit-molecular-dynamics",
    "yum groupinstall xnit-molecular-dynamics", "yum bogus", "yum",
    "rocks list host", "rocks list roll", "rocks run host hostname",
    "rocks run host compute hostname", "rocks run host nowhere hostname",
    "rocks",
    "module avail", "module load openmpi/1.6.4", "module list",
    "module unload openmpi/1.6.4", "module list", "module bogus", "module",
    "qsub -N md -u student -c 4 -t 300 -w 3600", "qsub -x", "qstat",
    "showq", "pbsnodes",
    "nodeset --fold compute-0-0,compute-0-1", "nodeset -f @compute",
    "nodeset --expand @compute", "nodeset -e compute-0-[0-1]",
    "nodeset --count @all", "nodeset -c @compute", "nodeset",
    "clubak", "clush -w @compute -f 2 -t 10 hostname",
    "clush -b -w @compute cat /etc/redhat-release", "clubak", "clush",
    "cluster-lint", "cluster-lint --json", "cluster-lint --fail-on warning",
    "cluster-lint --fail-on bogus", "cluster-lint --bogus",
    "condor_status", "condor_q", "ganglia", "lfs df",
    "useradd student2", "useradd", "cat", "which", "ssh",
    "ssh nowhere", "ssh compute-0-0", "hostname", "no-such-binary",
    "ls", "\t",
]


def _shell() -> list[tuple[str, object]]:
    from repro.cli import ClusterShell
    from repro.core import build_xcbc_cluster, build_xnit_repository, xnit_group_catalog
    from repro.errors import CommandError
    from repro.hardware import build_littlefe_modified
    from repro.htc import pool_from_cluster
    from repro.monitoring import monitor_cluster
    from repro.scheduler import ClusterResources, MauiScheduler

    def session():
        cluster = build_xcbc_cluster(build_littlefe_modified().machine).cluster
        scheduler = MauiScheduler(ClusterResources(cluster.machine))
        gmetad = monitor_cluster(cluster, scheduler=scheduler)
        gmetad.poll_cycle()
        shell = ClusterShell(
            cluster,
            scheduler=scheduler,
            repositories={"xsede": build_xnit_repository()},
            group_catalog=xnit_group_catalog(),
            condor_pool=pool_from_cluster(cluster),
            gmetad=gmetad,
        )
        for line in SHELL:
            with contextlib.suppress(CommandError):
                shell.run(line)

    return [("ClusterShell verbs", session)]


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
    sys.path[:0] = [str(ROOT / "src")]
    threading.setprofile(profile)
    sys.setprofile(profile)  # on before the imports: registration runs there
    try:
        with tempfile.TemporaryDirectory() as scratch:
            tmp = pathlib.Path(scratch)
            flows = _examples(tmp) + _bench() + _clis(tmp) + _shell()
            for name, call in flows:
                started = time.perf_counter()
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    call()
                times.append((name, time.perf_counter() - started))
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
