"""``python -m bench``: the benchmark's command line.

::

    python -m bench                      every workload, untraced; appends bench/history.jsonl
    python -m bench --trace              ... plus a traced run each: per-layer metrics
    python -m bench --agree              the untraced set twice; exit 1 unless they agree
    python -m bench --smoke [--trace]    small sizes, one iteration (never writes history)
    python -m bench --workload W --seed N --seconds S --trace 0|1
                                         one workload in this process; the last line of
                                         stdout is the driver's JSON object

The suite modes run every workload in a fresh subprocess of the last form,
so ``peak_rss_mb`` and ``setup_s`` are the workload's own.  A run whose
outputs are wrong prints what failed and exits 1 without a result.
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import json
import os
import subprocess
import sys
import time
from typing import Any

from . import ROOT, SRC

#: Exit code when there is no program to measure.
EXIT_NO_PROGRAM = 2

HISTORY = ROOT / "bench" / "history.jsonl"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", help="run just this workload, in-process")
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed host seconds per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also (suite) or instead (--workload) make the traced run",
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--agree", action="store_true")
    return parser


def _result_path(workload: str, trace: int):
    from .runner import OUT_DIR

    return OUT_DIR / f"result-{workload}-trace{trace}.json"


# -- one workload, this process (the driver's form) ---------------------------


def _pin_hash_seed() -> None:
    """Re-exec with ``PYTHONHASHSEED=0`` unless it is already pinned.

    Simulated results never depend on string hashing (simlint enforces
    sorted iteration), but host time does — set order and dict collisions
    differ per process — and a run is one process, so the variation would
    read as noise between runs of the same code.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(
            sys.executable, [sys.executable, "-m", "bench", *sys.argv[1:]], env
        )


def _run_one(args: argparse.Namespace) -> int:
    # The build step: byte-compile the program so a first run in a fresh
    # checkout does not charge compilation to set-up time.
    compileall.compile_dir(str(SRC / "repro"), quiet=2)
    started = time.perf_counter()
    from .metrics import CONTRACT_END_TO_END, PER_LAYER, RUN_SECONDS
    from .runner import BenchFailure, run_workload
    from .workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    seconds = RUN_SECONDS if args.seconds is None else args.seconds
    try:
        result = run_workload(
            args.workload, seed=args.seed, seconds=seconds,
            trace=bool(args.trace), smoke=args.smoke, started=started,
        )
    except BenchFailure as failure:
        print(f"INCORRECT: {failure}", file=sys.stderr)
        return 1
    path = _result_path(args.workload, args.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    _print_result(result)
    if args.trace:
        metrics = {
            m.name: {"value": result["per_layer"][m.name], "unit": m.unit}
            for m in PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": result["e2e"][m.name], "unit": m.unit}
            for m in CONTRACT_END_TO_END
        }
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def _print_result(result: dict[str, Any]) -> None:
    from .metrics import END_TO_END
    from .spans import LAYERS
    from .workloads import WORKLOADS

    name = result["workload"]
    units = {m.name: (m.unit, m.kind) for m in END_TO_END}
    print(
        f"== {name} seed={result['seed']} "
        f"{'traced' if result['trace'] else 'untraced'}"
        f"{' smoke' if result['smoke'] else ''}: "
        f"{result['iterations']} timed iteration(s) of "
        f"{result['ops_per_iteration']} ops ({WORKLOADS[name].op}), "
        f"all checks passed"
    )
    for metric, value in result["e2e"].items():
        unit, kind = units[metric]
        print(f"  {metric:<16} {value:>16.6g} {unit:<6} [{kind}]")
    print(f"  {'sim_digest':<16} {result['sim_digest'][:16]:>16}")
    layers = result.get("per_layer")
    if layers is None:
        return
    print(f"  {'layer':<12}{'calls':>10}{'busy_s':>10}{'self_s':>10}{'share':>8}")
    for layer in sorted(LAYERS, key=lambda l: -layers[f"{l}.self_s"]):
        if layers[f"{layer}.calls"]:
            print(
                f"  {layer:<12}{layers[f'{layer}.calls']:>10.0f}"
                f"{layers[f'{layer}.busy_s']:>10.3f}"
                f"{layers[f'{layer}.self_s']:>10.3f}"
                f"{layers[f'{layer}.self_share']:>8.1%}"
            )
    spans_suffixes = ("calls", "busy_s", "self_s", "self_share")
    for key in sorted(layers):
        layer, _, suffix = key.partition(".")
        shown_above = layer in LAYERS and suffix in spans_suffixes
        if not shown_above and (layers[key] or layer == "harness"):
            print(f"  {key:<34} {layers[key]:>16.6g}")


# -- every workload, fresh subprocesses ---------------------------------------


def _spawn(workload: str, args: argparse.Namespace, trace: int) -> dict[str, Any]:
    command = [
        sys.executable, "-m", "bench", "--workload", workload,
        "--seed", str(args.seed), "--trace", str(trace),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(done.returncode)
    # everything but the driver's JSON line is for people
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
    sys.stdout.flush()
    return json.loads(_result_path(workload, trace).read_text())


def _suite(args: argparse.Namespace, *, trace: bool) -> dict[str, dict[str, Any]]:
    from .workloads import WORKLOADS

    results = {}
    for workload in WORKLOADS:
        results[workload] = _spawn(workload, args, 0)
        if trace:
            results[workload]["per_layer"] = _spawn(workload, args, 1)["per_layer"]
    return results


def _commit() -> str:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src", "bench"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def _append_history(args: argparse.Namespace, results: dict[str, dict[str, Any]]) -> None:
    from .spans import LAYERS

    commit = _commit()
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    with open(HISTORY, "a") as handle:
        for workload, result in results.items():
            layers = result.get("per_layer")
            handle.write(json.dumps({
                "commit": commit,
                "utc": stamp,
                "seed": args.seed,
                "workload": workload,
                "iterations": result["iterations"],
                "sim_digest": result["sim_digest"],
                "e2e": result["e2e"],
                "self_share": None if layers is None else {
                    layer: layers[f"{layer}.self_share"] for layer in LAYERS
                },
            }, sort_keys=True) + "\n")


def _agree(args: argparse.Namespace) -> int:
    """Two untraced sets of the same code must tell the same story."""
    from .metrics import END_TO_END

    first = _suite(args, trace=False)
    second = _suite(args, trace=False)
    bad = 0
    print(f"{'workload':<15}{'metric':<17}{'first':>16}{'second':>16}  verdict")
    for workload in first:
        a, b = first[workload], second[workload]
        rows = [
            (m.name, a["e2e"][m.name], b["e2e"][m.name], m.bound)
            for m in END_TO_END if m.applies_to(workload)
        ] + [("sim_digest", a["sim_digest"][:14], b["sim_digest"][:14], None)]
        for metric, x, y, bound in rows:
            if bound is None:
                ok, rule = x == y, "exact"
            else:
                ok, rule = abs(x - y) <= bound * min(x, y), f"within {bound:.0%}"
            bad += not ok
            shown = (x, y) if isinstance(x, str) else (f"{x:.6g}", f"{y:.6g}")
            print(
                f"{workload:<15}{metric:<17}{shown[0]:>16}{shown[1]:>16}  "
                f"{'ok' if ok else 'DISAGREE'} ({rule})"
            )
    print("the two sets agree" if not bad else f"{bad} metric(s) disagree")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if args.workload is not None:
        if argv is None:
            _pin_hash_seed()
        return _run_one(args)
    if args.agree:
        return _agree(args)
    results = _suite(args, trace=bool(args.trace))
    if not args.smoke:
        _append_history(args, results)
        print(f"appended {len(results)} line(s) to {HISTORY.relative_to(ROOT)}")
    return 0
