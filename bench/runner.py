"""Run one workload in this process and turn it into metrics.

Two kinds of run:

* **untraced** — set-up (imports, input generation, one warm-up
  iteration), then timed iterations until ``seconds`` of timed host time
  have passed.  Every end-to-end metric comes from here.
* **traced** — after the same set-up, pairs of (untraced, traced)
  iterations until ``seconds`` have passed; the traced one runs inside
  :func:`bench.spans.recording`.  Per-layer times are medians over the
  traced iterations, ``harness.trace_overhead_ratio`` is the traced over
  the untraced median of the same run.

Correctness is part of the run: every iteration's outcome is audited, the
warm-up's exported traces also pass the ``repro.sim`` schema validator,
and every iteration of one seed must reproduce the warm-up's
``sim_digest``.  A run that is not correct raises :class:`BenchFailure`
instead of reporting numbers.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from typing import Any

from . import ROOT
from .metrics import END_TO_END, EXTRA_END_TO_END, PER_LAYER
from .spans import LAYERS, Recorder, recording
from .workloads import WORKLOADS, Outcome

__all__ = ["BenchFailure", "OUT_DIR", "run_workload"]

#: Span dumps and per-run result files (git-ignored).
OUT_DIR = ROOT / "bench" / "out"


class BenchFailure(Exception):
    """The workload's outputs were wrong; there is no number to report."""


def _iteration(workload: Any, *, deep: bool, recorder: Recorder | None = None):
    """One iteration: timed ``run`` and untimed ``finish``."""
    # Start every iteration from the same collector state: the previous
    # iteration's world is cyclic garbage whose collection would otherwise
    # land somewhere inside this one.
    gc.collect()
    if recorder is None:
        start = time.perf_counter()
        outcome = workload.run()
        took = time.perf_counter() - start
    else:
        with recording(recorder):
            start = time.perf_counter()
            outcome = workload.run()
            took = time.perf_counter() - start
    workload.finish(outcome, deep=deep)
    if outcome.problems:
        raise BenchFailure(
            f"{workload.name}: " + "; ".join(outcome.problems[:8])
        )
    return outcome, took


def _same_digest(name: str, warm: Outcome, outcome: Outcome) -> None:
    if outcome.sim_digest != warm.sim_digest:
        raise BenchFailure(
            f"{name}: sim_digest changed between iterations of one seed "
            f"({warm.sim_digest[:12]} -> {outcome.sim_digest[:12]}); the "
            f"flow is not deterministic"
        )


def _layer_metrics(
    recorder: Recorder, outcome: Outcome, wall_s: float
) -> dict[str, float]:
    """Per-layer numbers of one traced iteration."""
    out: dict[str, float] = dict(outcome.counters)
    for layer in LAYERS:
        calls, busy, self_s, _depth = recorder.layers[layer]
        out[f"{layer}.calls"] = float(calls)
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.self_share"] = self_s / wall_s
    calls = recorder.calls
    commits = calls("repro.rpm.transaction:Transaction.commit_planned")
    out["rpm.txns"] = float(commits)
    out["rpm.plan_shared_ratio"] = (
        1.0 - calls("repro.rpm.transaction:Transaction.plan") / commits
        if commits else 0.0
    )
    out["network.pxe_boots"] = float(
        calls("repro.network.pxe:PxeServer.boot")
    )
    out["distro.fs_writes"] = float(
        calls("repro.distro.filesystem:Filesystem.write")
    )
    out["recovery.journal_intents"] = float(
        calls("repro.recovery.journal:Journal.intent")
    )
    out.setdefault(
        "rocks.waves",
        float(
            calls("repro.rocks.insert_ethers:InsertEthers.discover_wave")
            + calls("repro.rocks.insert_ethers:InsertEthers.discover_boot")
        ),
    )
    out["sim.export_s"] = recorder.busy_s("repro.sim.trace:TraceBus.to_jsonl")
    events = out.get("sim.events_fired", 0.0) + out.get("sim.trace_emits", 0.0)
    out["sim.host_us_per_event"] = (
        out["sim.self_s"] / events * 1e6 if events else 0.0
    )
    out["harness.unattributed_share"] = 1.0 - recorder.self_total_s() / wall_s
    return out


def _write_spans(name: str, recorders: list[Recorder]) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"spans-{name}.jsonl", "w") as handle:
        for recorder in recorders:
            for span in recorder.spans:
                span_name, layer, start, end, parent, iteration = span
                handle.write(json.dumps({
                    "name": span_name, "layer": layer, "start_s": start,
                    "end_s": end, "parent": parent, "iteration": iteration,
                }) + "\n")
            handle.write(json.dumps({
                "iteration": recorder.iteration,
                "tallies": {
                    key: {"calls": calls, "busy_s": busy}
                    for key, (calls, busy) in sorted(recorder.tallies.items())
                    if calls
                },
            }) + "\n")


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool = False,
    smoke: bool = False,
    started: float | None = None,
) -> dict[str, Any]:
    """Run one workload; returns the full result (see module docstring).

    ``started`` is the ``time.perf_counter()`` reading from before
    ``repro`` was imported, so set-up time includes the imports; smoke
    runs do exactly one iteration of each kind.
    """
    if started is None:
        started = time.perf_counter()
    workload = WORKLOADS[name](seed, smoke=smoke)
    ready = time.perf_counter()
    warm, cold_s = _iteration(workload, deep=True)
    # imports + input generation + the warm-up's run; not its audit
    setup_s = (ready - started) + cold_s

    plain_s: list[float] = []
    traced_s: list[float] = []
    recorders: list[Recorder] = []
    layer_runs: list[dict[str, float]] = []
    attempted = failed = 0
    spent = 0.0
    while True:
        outcome, took = _iteration(workload, deep=False)
        _same_digest(name, warm, outcome)
        plain_s.append(took)
        attempted += outcome.ops
        failed += outcome.failed
        spent += took
        if trace:
            recorder = Recorder(iteration=len(recorders))
            outcome, took = _iteration(workload, deep=False, recorder=recorder)
            _same_digest(name, warm, outcome)
            traced_s.append(took)
            recorders.append(recorder)
            layer_runs.append(_layer_metrics(recorder, outcome, took))
            spent += took
        if smoke or spent >= seconds:
            break

    # Rates are all timed work over all timed seconds (a mean), so they are
    # a second estimator beside the median iteration, not a rescaling of it.
    iter_s_p50 = statistics.median(plain_s)
    timed_s = sum(plain_s)
    events = warm.counters.get("sim.events_fired", 0.0) + warm.counters.get(
        "sim.trace_emits", 0.0
    )
    values: dict[str, float] = {
        "setup_s": setup_s,
        "ops_per_s": attempted / timed_s,
        "iter_s_p50": iter_s_p50,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # the counts repeat exactly per seed (the digest check above)
        "events_per_s": events * len(plain_s) / timed_s,
        "fail_ratio": failed / attempted,
        **warm.sim,
    }
    result: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "iterations": len(plain_s),
        "iter_s": plain_s,
        "ops_per_iteration": warm.ops,
        "attempted": attempted,
        "failed": failed,
        "correct": True,
        "sim_digest": warm.sim_digest,
        "e2e": {
            m.name: values[m.name] for m in END_TO_END if m.applies_to(name)
        },
    }
    if trace:
        per_layer = {
            key: statistics.median(run[key] for run in layer_runs)
            for key in layer_runs[0]
        }
        traced_p50 = statistics.median(traced_s)
        per_layer["harness.trace_overhead_ratio"] = traced_p50 / iter_s_p50
        for metric in EXTRA_END_TO_END:
            if metric.applies_to(name):
                per_layer[f"e2e.{metric.name}"] = values[metric.name]
        # a layer the flow never enters still reports, as zero
        for metric in PER_LAYER:
            per_layer.setdefault(metric.name, 0.0)
        result["per_layer"] = per_layer
        result["traced_iter_s_p50"] = traced_p50
        _write_spans(name, recorders)
    return result
