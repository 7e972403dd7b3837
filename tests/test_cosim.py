"""Co-simulation acceptance: scheduler, power, MPI and monitoring share
one kernel timeline, the trace validates against the schema, and identical
seeds reproduce the trace byte-for-byte."""

import importlib.util
import pathlib

import pytest

from repro.sim import validate_jsonl
from tools.flows import FLOWS

_PATH = pathlib.Path(__file__).parent.parent / "examples" / "cosim_limulus.py"
_spec = importlib.util.spec_from_file_location("cosim_limulus", _PATH)
cosim = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cosim)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    path = tmp_path_factory.mktemp("cosim") / "cosim.jsonl"
    return {**cosim.run_cosim(seed=7, trace_path=path), "path": path}


class TestOneTimeline:
    def test_all_subsystems_share_the_kernel(self, run):
        kernel = run["kernel"]
        assert run["scheduler"].kernel is kernel
        assert run["gmetad"].kernel is kernel
        # MPI rank timelines registered on the same kernel
        assert any(name.startswith("mpi.rank") for name in kernel._timelines)

    def test_every_subsystem_published_events(self, run):
        trace = run["kernel"].trace
        for subsystem in ("scheduler", "power", "monitoring", "mpi"):
            assert trace.count(subsystem=subsystem) > 0, subsystem

    def test_monitoring_interleaves_with_jobs(self, run):
        """Polls land between job start and end — periodic kernel events
        fire inside the scheduler's windows, not around them."""
        events = run["kernel"].trace.events
        starts = [e.seq for e in events if e.kind == "job.start"]
        ends = [e.seq for e in events if e.kind == "job.end"]
        cycles = [e.seq for e in events if e.kind == "monitor.rollup"]
        assert any(min(starts) < c < max(ends) for c in cycles)

    def test_jobs_completed_with_boot_delay(self, run):
        stats = run["stats"]
        assert stats.completed == 3 and stats.failed == 0
        assert run["kernel"].trace.count("node.power_on") >= 1

    def test_mpi_profile_recorded(self, run):
        profile = run["profiles"]["mpi-allreduce"]
        assert profile.ranks == 8
        assert profile.communication_s > 0


class TestTraceContract:
    def test_trace_validates_against_schema(self, run):
        count, problems = validate_jsonl(run["jsonl"])
        assert problems == []
        assert count == len(run["kernel"].trace)

    def test_same_seed_byte_identical(self, run, flow_run):
        # the cosim row of tools/flows.py is a second run_cosim(seed=7)
        (again,) = flow_run(next(f for f in FLOWS if f.name == "cosim"))[1]
        assert again == run["jsonl"]

    def test_different_seed_differs(self, run):
        other = cosim.run_cosim(seed=8)
        assert other["jsonl"] != run["jsonl"]

    def test_trace_written_to_disk_matches(self, run):
        assert run["path"].read_text() == run["jsonl"]
