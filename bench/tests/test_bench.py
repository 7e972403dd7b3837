"""The benchmark's own tests (``python -m pytest bench/tests``, not tier-1).

Everything runs at ``--smoke`` size: Marshall only, Limulus only, a
500-node patch day, one 32-client storm — one iteration of each kind.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import metrics, runner, spans  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def smoke():
    """One traced smoke run per workload (end-to-end and per-layer)."""
    started = time.perf_counter()
    results = {
        name: runner.run_workload(
            name, seed=2015, seconds=0, trace=True, smoke=True
        )
        for name in WORKLOADS
    }
    results["elapsed_s"] = time.perf_counter() - started
    return results


def test_smoke_set_is_quick(smoke):
    assert smoke["elapsed_s"] < 20.0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted(smoke, workload):
    result = smoke[workload]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m.name for m in metrics.END_TO_END if m.applies_to(workload)}
    assert set(result["e2e"]) == expected
    assert set(result["per_layer"]) == {m.name for m in metrics.PER_LAYER}
    for value in (*result["e2e"].values(), *result["per_layer"].values()):
        assert isinstance(value, float)
    # the rate is all timed ops over all timed seconds
    assert result["e2e"]["ops_per_s"] == pytest.approx(
        result["attempted"] / sum(result["iter_s"])
    )
    # never-zero is what lets the driver put a relative bound on them
    for metric in metrics.CONTRACT_END_TO_END:
        assert result["e2e"][metric.name] > 0


def test_names_and_units_are_well_formed():
    every = (*metrics.END_TO_END, *metrics.PER_LAYER)
    for metric in every:
        assert NAME.fullmatch(metric.name), metric.name
        assert UNIT.fullmatch(metric.unit), metric.unit
        assert metric.better in ("lower", "higher")
    names = [m.name for m in metrics.PER_LAYER]
    assert len(names) == len(set(names)) <= 128
    assert any(m.name == "setup_s" for m in metrics.CONTRACT_END_TO_END)
    assert all(0 < m.bound <= 0.25 for m in metrics.CONTRACT_END_TO_END)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_self_times_fit_in_the_traced_wall(smoke, workload):
    result = smoke[workload]
    layers = result["per_layer"]
    self_total = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert 0 < self_total <= result["traced_iter_s_p50"]
    assert 0 <= layers["harness.unattributed_share"] < 0.25
    for layer in spans.LAYERS:
        assert layers[f"{layer}.self_s"] <= layers[f"{layer}.busy_s"] + 1e-9


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_changes_the_digest(smoke, workload):
    other = runner.run_workload(workload, seed=7, seconds=0, smoke=True)
    assert other["sim_digest"] != smoke[workload]["sim_digest"]


def _bindings() -> dict[tuple[str, str], int]:
    """Identity of everything ``spans.recording`` may replace."""
    out = {}
    for boundary in spans.BOUNDARIES:
        owner, attr, raw = spans._resolve(boundary.target)
        if isinstance(owner, type):
            out[(boundary.target, "class")] = id(vars(owner)[attr])
            continue
        for modname, module in sorted(sys.modules.items()):
            if module is not None and vars(module).get(attr) is raw:
                out[(boundary.target, modname)] = id(raw)
    return out


def test_spans_restore_every_attribute(smoke):
    before = _bindings()
    with spans.recording(spans.Recorder()):
        during = _bindings()
    assert _bindings() == before
    # inside the block the class attributes really were replaced
    replaced = [k for k in before if k[1] == "class" and during.get(k) != before[k]]
    assert len(replaced) == sum(1 for k in before if k[1] == "class")


def test_spans_restore_when_the_workload_raises(smoke):
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.recording(spans.Recorder()):
            raise RuntimeError("workload blew up")
    assert _bindings() == before


def test_kernel_callbacks_are_charged_to_the_layer_that_scheduled_them():
    workload = WORKLOADS["release_storm"](2015, smoke=True)
    recorder = spans.Recorder()
    with spans.recording(recorder):
        workload.run()
    fired = recorder.calls("repro.sim.kernel:SimKernel.step")
    # the storm's clients, proxies and origin schedule nearly every event
    assert recorder.calls("repod.callback") > 0.9 * fired > 0
    # and a callback nobody's boundary scheduled stays with the kernel
    from repro.sim import SimKernel

    recorder = spans.Recorder()
    with spans.recording(recorder):
        kernel = SimKernel(seed=1)
        kernel.after(1.0, lambda: None)
        kernel.run()
    assert recorder.calls("repro.sim.kernel:SimKernel.step") == 1
    assert not [name for name in recorder.tallies if name.endswith(".callback")]


def test_no_latency_sample_is_a_problem_not_a_traceback():
    from bench.workloads import Outcome, _latency_metrics

    outcome = Outcome()
    _latency_metrics(outcome, [])
    assert outcome.problems and not outcome.sim


def test_a_wrong_output_fails_the_run(monkeypatch):
    cls = WORKLOADS["xnit_update"]
    finish = cls.finish

    def sabotaged(self, outcome, *, deep):
        finish(self, outcome, deep=deep)
        outcome.problems.append("host did not converge")

    monkeypatch.setattr(cls, "finish", sabotaged)
    with pytest.raises(runner.BenchFailure, match="did not converge"):
        runner.run_workload("xnit_update", seed=2015, seconds=0, smoke=True)


def test_benchmark_json_is_the_contract():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metrics.contract()
    assert set(on_disk) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(on_disk["workloads"]) <= 8
    for workload in on_disk["workloads"]:
        assert NAME.fullmatch(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_command_line(trace):
    done = subprocess.run(
        [
            sys.executable, "-m", "bench", "--workload", "xnit_update",
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = _last_json(done.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    wanted = metrics.PER_LAYER if trace else metrics.CONTRACT_END_TO_END
    assert list(line["metrics"]) == [m.name for m in wanted]
    for metric in wanted:
        assert line["metrics"][metric.name]["unit"] == metric.unit


def test_no_program_means_no_result(tmp_path):
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [
            sys.executable, "-m", "bench", "--workload", "xcbc_build",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
