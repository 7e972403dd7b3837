#!/usr/bin/env python3
"""The flows: one table of the runs this repository exists for.

A *flow* is one run of an example, a bench workload, the paper record, a CLI
form or the admin shell; :data:`FLOWS` holds one :class:`Flow` row each.  Every
check that runs flows reads this table and keeps no list of its own: the
determinism gate (``seeds`` rows, hash seeds 0, 1 and 7), the tie rerun
(``ties`` rows), the vocabulary test (rows with ``kinds``) and the flow census
(every row).

A row's ``run`` takes a scratch directory and returns ``(outcome, jsonl)``:
a JSON-able outcome and the trace texts the flow exported, one per kernel.
A row with a ``reference`` must return exactly what its reference returns.
Record every ``seeds`` row under DIR, as the gate does once per hash seed::

    PYTHONHASHSEED=0 python tools/flows.py DIR
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import pathlib
import runpy
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parent.parent
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench.workloads import WORKLOADS  # noqa: E402
from repro import paper  # noqa: E402
from repro.analyze import cli as lint  # noqa: E402
from repro.faults import __main__ as faults  # noqa: E402
from repro.faults.chaos import run_chaos  # noqa: E402
from repro.sim import __main__ as sim  # noqa: E402

#: A row's callable: scratch directory -> (outcome, one JSONL text per kernel).
Run = Callable[[pathlib.Path], tuple]

#: Poll records whose same-instant order follows the seq FIFO: a Ganglia
#: poll due at the instant a job starts or ends reads the load left by
#: whichever event was submitted first.  No outcome depends on them.
POLLS = frozenset({"metric.sample", "monitor.rack", "monitor.rollup"})


@dataclass(frozen=True)
class Flow:
    """One flow and the checks it faces."""

    name: str
    run: Run
    #: trace kinds the flow must publish
    kinds: frozenset[str] = frozenset()
    #: record kinds whose same-instant order follows the seq FIFO
    fifo: frozenset[str] = frozenset()
    #: joins the hash-seed gate
    seeds: bool = False
    #: joins the tie rerun (implies ``seeds``)
    ties: bool = False
    #: a second run whose ``(outcome, jsonl)`` this row's must equal
    reference: Run | None = None


def _example(name: str) -> dict[str, Any]:
    """The namespace of ``examples/<name>.py``."""
    return runpy.run_path(str(ROOT / "examples" / f"{name}.py"), run_name="flows")


def _clean(name: str, problems: list[str]) -> None:
    """A flow that fails its own audit has no outcome to compare: raise."""
    if problems:
        raise RuntimeError(f"{name}: " + "; ".join(problems[:8]))


# -- the gated flows --------------------------------------------------------------


def _bench(name: str) -> Run:
    """One smoke iteration, audited in depth, then a second that must
    repeat its ``sim_digest`` (the rule ``python3 -m bench`` holds)."""

    def run(tmp: pathlib.Path):
        workload = WORKLOADS[name](2015, smoke=True)
        outcome = workload.run()
        jsonl = list(outcome.jsonl)
        workload.finish(outcome, deep=True)
        _clean(name, outcome.problems)
        again = workload.run()
        workload.finish(again, deep=False)
        if again.sim_digest != outcome.sim_digest:
            raise RuntimeError(f"{name}: sim_digest changed between iterations")
        return {
            "ops": outcome.ops,
            "failed": outcome.failed,
            "result": outcome.result,
            "counters": dict(outcome.counters),
        }, jsonl

    return run


def _chaos(tmp: pathlib.Path):
    chaos = run_chaos(seed=11, cluster="limulus")
    _clean("chaos", chaos.report.violations)
    return asdict(chaos.report), [chaos.jsonl]


def _rolling(tmp: pathlib.Path):
    run = _example("rolling_xnit_update")["run_update"](seed=7)
    report = run["report"]
    waves = [
        [w.wave, str(w.nodes), str(w.ok), str(w.failed), str(w.skipped),
         str(w.unhealthy), w.status]
        for w in report.waves
    ]
    return {"state": report.state, "waves": waves}, [run["kernel"].trace.to_jsonl()]


def _cosim(tmp: pathlib.Path):
    run = _example("cosim_limulus")["run_cosim"](seed=7)
    return {
        "stats": asdict(run["stats"]),
        "profiles": {name: asdict(p) for name, p in sorted(run["profiles"].items())},
        "energy": asdict(run["scheduler"].energy),
        "events": run["kernel"].events_processed,
    }, [run["jsonl"]]


def _fleet(tmp: pathlib.Path):
    run = _example("fleet_wave_install")["run_fleet"](seed=7)
    return {
        "summary": asdict(run["summary"]),
        "dead": run["tree"].dead_hosts(),
        "fleet": str(run["cluster"].rocksdb.fleet.nodeset()),
    }, [run["kernel"].trace.to_jsonl()]


def _storm(tmp: pathlib.Path):
    scenario, report = _example("update_storm")["run_storm"](seed=7)
    _clean("storm", report.problems)
    return report.state_dict(), [scenario.kernel.trace.to_jsonl()]


def _lazy(tmp: pathlib.Path):
    run = _example("lazy_delivery")["run_delivery"](seed=7)
    _clean("lazy", run["problems"])
    facts = {key: asdict(run[key]) for key in ("v1", "v2", "resumed", "update_rep")}
    facts.update({key: run[key] for key in ("cold_wan", "update_wan", "rollback_wan")})
    facts["deliveries"] = [asdict(d.stats) for d in run["deliveries"]]
    return facts, [run["kernel"].trace.to_jsonl()]


def _faults(expected: int, *argv: Any) -> None:
    """``python -m repro.faults ARGV --quiet``, which must exit ``expected``;
    its crash notice is swallowed."""
    with contextlib.redirect_stderr(io.StringIO()):
        status = faults.main([*map(str, argv), "--quiet"])
    if status != expected:
        raise RuntimeError(f"python -m repro.faults {argv}: exit {status}, not {expected}")


def _resumed(tmp: pathlib.Path):
    """A head-node crash at t=1800 s under checkpoints every 50 steps, then
    a resume from the last checkpoint with the crash disarmed.  The trace is
    the outcome."""
    checkpoint, trace = tmp / "chaos.ckpt", tmp / "resumed.jsonl"
    _faults(3, "--seed", 3, "--checkpoint-every", 50, "--checkpoint-path", checkpoint,
            "--crash-at", 1800)
    _faults(0, "--seed", 3, "--checkpoint-path", checkpoint, "--resume", "--trace", trace)
    return None, [trace.read_text()]


def _uninterrupted(tmp: pathlib.Path):
    """The same plan with the crash disarmed, run straight through."""
    trace = tmp / "baseline.jsonl"
    _faults(0, "--seed", 3, "--crash-at", 1800, "--no-crash", "--trace", trace)
    return None, [trace.read_text()]


def _digests(directory: pathlib.Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def _paper(tmp: pathlib.Path):
    with contextlib.redirect_stdout(io.StringIO()):
        status = paper.main([str(tmp / "paper")])
    return {"status": status, "artefacts": _digests(tmp / "paper")}, []


def _committed_paper(tmp: pathlib.Path):
    return {"status": 0, "artefacts": _digests(ROOT / "benchmarks" / "results")}, []


# -- the census-only flows ----------------------------------------------------------


def _main(name: str, *argv: str) -> Run:
    """An example's ``main()``, with ``argv`` where it takes one."""

    def run(tmp: pathlib.Path):
        main = _example(name)["main"]
        return main(list(argv)) if inspect.signature(main).parameters else main(), []

    return run


def _cli(name: str, call: Callable[[pathlib.Path], Any]) -> Flow:
    """One form of a ``python -m repro.*`` front end; its exits are the outcome."""
    return Flow(f"python -m repro.{name}", lambda tmp: (call(tmp), []))


def _plan(tmp: pathlib.Path) -> str:
    plan = tmp / "plan.json"
    plan.write_text(json.dumps({"name": "census", "faults": [
        {"kind": "node.crash", "target": "littlefe-iu-n1", "at_s": 300.0,
         "duration_s": 900.0},
        {"kind": "heartbeat.loss", "target": "littlefe-iu-n2", "at_s": 200.0,
         "duration_s": 60.0},
    ]}))
    return str(plan)


def _trace_files(tmp: pathlib.Path) -> tuple[int, int]:
    """``python -m repro.sim`` on a good trace, then on a re-spaced copy."""
    good, spaced = tmp / "fleet.jsonl", tmp / "spaced.jsonl"
    _example("fleet_wave_install")["run_fleet"](seed=7, trace_path=good)
    spaced.write_text(good.read_text().replace(',"', ', "'))
    return sim.main([str(good)]), sim.main([str(spaced)])


EXAMPLES = sorted(path.stem for path in (ROOT / "examples").glob("*.py"))
LINTED = [str(ROOT / "examples" / f"{name}.py") for name in EXAMPLES]
BASELINE = str(ROOT / "examples" / "lint_baseline.json")
FIXTURES = str(ROOT / "tests" / "fixtures" / "simlint")


def _baselines(tmp: pathlib.Path) -> tuple[int, int]:
    written = str(tmp / "baseline.json")
    return (lint.main(["--write-baseline", written, *LINTED]),
            lint.main(["--baseline", written, "--prune-baseline", *LINTED]))


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


def _shell(tmp: pathlib.Path):
    """Every ``ClusterShell`` verb on the ``cluster_shell_session`` wiring."""
    from repro.cli import ClusterShell
    from repro.core import build_xcbc_cluster, build_xnit_repository, xnit_group_catalog
    from repro.errors import CommandError
    from repro.hardware import build_littlefe_modified
    from repro.htc import pool_from_cluster
    from repro.monitoring import monitor_cluster
    from repro.scheduler import ClusterResources, MauiScheduler

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
    return None, []


# -- the table ------------------------------------------------------------------------

GATED = dict(seeds=True, ties=True)

FLOWS: list[Flow] = [
    Flow("xcbc_build", _bench("xcbc_build"), **GATED),
    Flow("xnit_update", _bench("xnit_update"), **GATED),
    Flow("patch_day_10k", _bench("patch_day_10k"),
         kinds=frozenset({"cas.fetch", "node.drain", "shell.wave"}), **GATED),
    Flow("release_storm", _bench("release_storm"),
         kinds=frozenset({"repod.request", "cas.fetch"}), **GATED),
    Flow("chaos", _chaos, kinds=frozenset({"fault.inject", "fault.recover", "fault.retry",
                                           "job.requeue", "monitor.host_dead", "monitor.rollup"}),
         fifo=POLLS, **GATED),
    Flow("rolling", _rolling, kinds=frozenset({"shell.cmd", "shell.retry", "shell.gather",
                                               "shell.wave", "shell.abort"}), **GATED),
    Flow("cosim", _cosim, kinds=frozenset({"monitor.rollup"}), fifo=POLLS, **GATED),
    Flow("fleet", _fleet,
         kinds=frozenset({"install.wave", "monitor.rack", "monitor.rollup"}), **GATED),
    Flow("storm", _storm, kinds=frozenset({"repod.request", "repod.shed", "repod.coalesce",
                                           "repod.stale", "fault.retry"}), **GATED),
    Flow("lazy", _lazy, kinds=frozenset({"cas.publish", "cas.replicate", "cas.fetch",
                                         "cas.rollback"}), **GATED),
    Flow("checkpoint", _resumed, kinds=frozenset({"recover.node", "recover.gmond"}),
         fifo=POLLS, reference=_uninterrupted, **GATED),
    Flow("paper", _paper, seeds=True, reference=_committed_paper),
    *(Flow(f"examples/{name}.py", _main(name)) for name in EXAMPLES),
    Flow("examples/update_storm.py --naive-style", _main("update_storm", "--naive-style")),
    _cli("faults", lambda tmp: faults.main([])),
    _cli("faults --cluster limulus --seed 11 --trace",
         lambda tmp: faults.main(["--cluster", "limulus", "--seed", "11",
                                  "--trace", str(tmp / "chaos.jsonl")])),
    _cli("faults --plan --jobs --no-supervise",
         lambda tmp: faults.main(["--plan", _plan(tmp), "--jobs", "6",
                                  "--no-supervise", "--quiet"])),
    _cli("faults bad flags",
         lambda tmp: (faults.main(["--resume"]), faults.main(["--checkpoint-every", "0"]))),
    _cli("sim, good and re-spaced", _trace_files),
    _cli("analyze examples --baseline", lambda tmp: lint.main(["--baseline", BASELINE, *LINTED])),
    _cli("analyze --list-rules", lambda tmp: lint.main(["--list-rules"])),
    _cli("analyze --write-baseline, then --prune-baseline", _baselines),
    _cli("analyze --format json --only --disable --fail-on",
         lambda tmp: (lint.main(["--format", "json", "--only", "RC204,NET404",
                                 "--fail-on", "warning", *LINTED]),
                      lint.main(["--format", "json", "--disable", "RC204",
                                 "--fail-on", "info", *LINTED]))),
    _cli("analyze usage errors",
         lambda tmp: (lint.main([]), lint.main(["--prune-baseline", LINTED[0]]),
                      lint.main(["--disable", "ZZZ999", LINTED[0]]),
                      lint.main([str(tmp / "missing.py")]))),
    _cli("analyze --source", lambda tmp: lint.main(["--source"])),
    _cli("analyze --source --format json --pyproject",
         lambda tmp: lint.main(["--source", "--format", "json", "--pyproject",
                                str(ROOT / "pyproject.toml")])),
    _cli("analyze --source --format json fixtures",
         lambda tmp: lint.main(["--source", "--format", "json", FIXTURES])),
    _cli("simlint fixtures", lambda tmp: lint.main_simlint([FIXTURES])),
    _cli("paper", lambda tmp: paper.main([])),
    Flow("ClusterShell verbs", _shell),
]


def record(flow: Flow, directory: pathlib.Path) -> None:
    """Run ``flow`` and write what it returned under ``directory/run``, and
    its reference's under ``directory/reference``: ``outcome.json``, one
    ``trace-N.jsonl`` per trace, and the files it wrote in ``scratch/``."""
    for side, call in (("run", flow.run), ("reference", flow.reference)):
        if call is None:
            continue
        out = directory / side
        (out / "scratch").mkdir(parents=True)
        outcome, jsonl = call(out / "scratch")
        (out / "outcome.json").write_text(json.dumps(outcome, indent=1) + "\n")
        for index, text in enumerate(jsonl):
            (out / f"trace-{index}.jsonl").write_text(text)


if __name__ == "__main__":
    (directory,) = sys.argv[1:]  # usage: python tools/flows.py DIR
    for flow in FLOWS:
        if flow.seeds:
            record(flow, pathlib.Path(directory) / flow.name)
