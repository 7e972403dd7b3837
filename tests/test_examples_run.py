"""Smoke tests: every shipped example runs to completion and prints its
headline content.  The examples double as integration tests of the public
API — if one breaks, a user-facing walkthrough broke."""

import importlib.util
import io
import pathlib
import re
import sys
from contextlib import redirect_stdout

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str) -> str:
    """Import an example module and run its main(), capturing stdout."""
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        spec.loader.exec_module(module)
        module.main()
    return buffer.getvalue()


def test_quickstart():
    output = run_example("quickstart")
    assert "537.6 GFLOPS" in output
    assert "OVERALL" in output and "100.0%" in output
    assert "PASSED" in output  # the real HPL residual check


def test_littlefe_xcbc_from_scratch():
    output = run_example("littlefe_xcbc_from_scratch")
    assert "Rocks refuses it" in output
    assert "Rosewill" in output
    assert "[slot 5]" in output  # the rendered frame


def test_limulus_xnit_retrofit():
    output = run_example("limulus_xnit_retrofit")
    assert "Final compatibility (0.0.9 catalogue): 100.0%" in output
    assert "R available on the frontend: True" in output


def test_campus_bridging_migration():
    output = run_example("campus_bridging_migration")
    assert "Command portability: 100%" in output
    assert "completed" in output


def test_training_workshop():
    output = run_example("training_workshop")
    assert "all steps passed" in output
    assert "Teaching moments" in output


def test_cosim_limulus():
    output = run_example("cosim_limulus")
    assert "monitor.rollup" in output  # the trace-bus counter table
    assert "ranks" in output and "communication" in output


def test_deskside_research():
    output = run_example("deskside_research")
    assert "crossover" in output
    assert "100-point parameter study" in output


def test_cluster_shell_session():
    output = run_example("cluster_shell_session")
    assert "0 failures" in output
    assert "rocks list host" in output
    assert "compute-0-[0-2]" in output          # nodeset --fold
    assert "compute-0-[0-4]: CentOS 6.5" in output  # clubak folding


def test_rolling_xnit_update():
    output = run_example("rolling_xnit_update")
    assert "auto-paused after wave" in output
    assert "exceed max_failures=100" in output
    assert "rack_failures_limit=50" in output       # rack failure domain
    assert "final state: succeeded" in output       # resumed and finished
    assert "compute-19-[0-207]" in output           # folded failed NodeSet
    assert "compute-19-[208-399]" in output         # folded skipped remnant
    assert "peak in-flight workers: 64 (bound: 64)" in output


def test_fleet_wave_install():
    output = run_example("fleet_wave_install")
    assert "compute-0-[0-63]" in output      # folded wave addresses
    assert "dead: ['compute-0-17']" in output  # hierarchical dead-host path


def test_update_storm():
    output = run_example("update_storm")
    assert "goodput 100.0%" in output
    assert "invariant audit: clean" in output
    assert "repod.coalesce" in output and "repod.stale" in output
    assert "repod.shed" in output
    # each granted retry is one fault.retry record that names its budget
    granted = re.search(r"budget granted=(\d+)", output).group(1)
    assert f"fault.retry paid from a budget: {granted}\n" in output


def test_lazy_delivery():
    output = run_example("lazy_delivery")
    assert "confluence audit: clean" in output
    assert "deduplicated against v1" in output
    assert "cas.publish" in output and "cas.rollback" in output
    assert "cas.replicate" in output and "cas.fetch" in output


def test_rebuild_table3_fleet():
    output = run_example("rebuild_table3_fleet")
    assert "304   2708  49.61" in output
    assert "10.1x growth" in output
    assert "300 TB over 20 OSTs" in output


def test_chaos_littlefe_main_ignores_the_host_argv(monkeypatch):
    # a programmatic main() takes its defaults, not the host process's flags
    monkeypatch.setattr(sys, "argv", ["pytest", "--check"])
    output = run_example("chaos_littlefe")
    assert "fault plan" in output and "final Ganglia view" in output
