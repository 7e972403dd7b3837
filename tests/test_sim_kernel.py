"""The simulation kernel: clock, queue, timelines, trace bus, determinism.

The property tests pin the three contracts every refactored subsystem now
leans on: simulated time never decreases, events scheduled for the same
instant fire in submission order, and identical seeds produce
byte-identical JSONL traces.
"""

import enum
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError, TraceError
from repro.sim import (
    EVENT_SCHEMA,
    EventQueue,
    SimClock,
    SimKernel,
    Timeline,
    TraceBus,
    validate_event,
    validate_jsonl,
)
from repro.sim.__main__ import main as sim_main

from .oracles import trace_json

TIMES = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False)


class TestClock:

    def test_starts_at_start(self):
        assert SimClock(5.0).now_s == 5.0

    def test_advance_forward_and_equal(self):
        clock = SimClock()
        clock.advance_to(10.0)
        clock.advance_to(10.0)  # equal is a no-op
        assert clock.now_s == 10.0

    def test_regression_raises(self):
        clock = SimClock(3.0)
        with pytest.raises(SimulationError, match="backwards"):
            clock.advance_to(2.0)

    def test_nan_rejected(self):
        with pytest.raises(SimulationError, match="NaN"):
            SimClock(float("nan"))

    @given(st.lists(TIMES, min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_property_time_never_decreases(self, times):
        """Feeding arbitrary times through max-monotonisation, the clock
        reading is non-decreasing at every step."""
        clock = SimClock()
        readings = []
        for t in times:
            clock.advance_to(max(clock.now_s, t))
            readings.append(clock.now_s)
        assert readings == sorted(readings)


class TestTimeline:

    def test_advance_and_meet(self):
        tl = Timeline("rank0", start_s=100.0)
        tl.advance(5.0)
        assert tl.now_s == 105.0
        tl.meet(50.0)  # already past: no-op
        assert tl.now_s == 105.0
        tl.meet(200.0)
        assert tl.now_s == 200.0

    def test_negative_advance_rejected(self):
        with pytest.raises(SimulationError, match="advance"):
            Timeline("x").advance(-1.0)

    def test_reset_starts_new_epoch(self):
        tl = Timeline("x", start_s=10.0)
        tl.advance(90.0)
        tl.reset(10.0)
        assert tl.now_s == 10.0

    def test_kernel_registers_and_uniquifies(self):
        kernel = SimKernel()
        a = kernel.timeline("mpi.rank0")
        b = kernel.timeline("mpi.rank0")
        assert a.name == "mpi.rank0" and b.name == "mpi.rank0~2"
        assert kernel.timelines() == [a, b]


class TestEventQueue:

    def test_pops_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(2.0, lambda: fired.append("b"))
        q.schedule(1.0, lambda: fired.append("a"))
        while (h := q.pop()) is not None:
            h.callback()
        assert fired == ["a", "b"]

    def test_cancel_is_lazy_but_skipped(self):
        q = EventQueue()
        keep = q.schedule(1.0, lambda: "keep")
        drop = q.schedule(0.5, lambda: "drop")
        q.cancel(drop)
        assert len(q) == 1
        assert q.peek() is keep
        assert q.pop() is keep
        assert q.pop() is None

    def test_double_cancel_raises(self):
        q = EventQueue()
        h = q.schedule(1.0, lambda: None)
        q.cancel(h)
        with pytest.raises(SimulationError, match="already"):
            q.cancel(h)

    def test_fired_handle_cannot_be_cancelled(self):
        q = EventQueue()
        h = q.schedule(1.0, lambda: None)
        assert q.pop() is h and not h.active
        with pytest.raises(SimulationError):
            q.cancel(h)

    def test_infinite_time_rejected(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.schedule(float("inf"), lambda: None)

    def test_reschedule_takes_fresh_serial(self):
        """A rescheduled event fires AFTER events already queued for the
        same instant — re-entry at the back of that instant's FIFO."""
        q = EventQueue()
        fired = []
        moved = q.schedule(1.0, lambda: fired.append("moved"))
        q.schedule(5.0, lambda: fired.append("resident"))
        new = q.reschedule(moved, 5.0)
        assert not moved.active and new.active
        while (h := q.pop()) is not None:
            h.callback()
        assert fired == ["resident", "moved"]

    @given(st.lists(st.tuples(TIMES, st.booleans()), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_property_equal_times_fire_in_submission_order(self, spec):
        """With coarsely bucketed times (forcing collisions), pop order is
        (time, submission serial) — stable FIFO within an instant."""
        q = EventQueue()
        handles = []
        for time_s, cancel in spec:
            bucket = float(int(time_s) % 3)  # force many identical times
            handles.append((q.schedule(bucket, lambda: None), cancel))
        for handle, cancel in handles:
            if cancel and handle.active:
                q.cancel(handle)
        popped = []
        while (h := q.pop()) is not None:
            popped.append((h.time_s, h.seq))
        assert popped == sorted(popped)
        assert len(popped) == sum(1 for h, c in handles if not c)


class TestKernel:

    def test_step_advances_clock_to_event(self):
        kernel = SimKernel()
        seen = []
        kernel.at(4.0, lambda: seen.append(kernel.now_s))
        assert kernel.step() is True
        assert seen == [4.0] and kernel.now_s == 4.0

    def test_at_in_the_past_rejected(self):
        kernel = SimKernel()
        kernel.run_until(10.0)
        with pytest.raises(SimulationError, match="cannot schedule"):
            kernel.at(5.0, lambda: None)

    def test_run_until_fires_due_then_lands(self):
        kernel = SimKernel()
        seen = []
        kernel.at(1.0, lambda: seen.append(1))
        kernel.at(9.0, lambda: seen.append(9))
        fired = kernel.run_until(5.0)
        assert fired == 1 and seen == [1] and kernel.now_s == 5.0

    def test_run_until_survives_a_longer_nested_spend(self):
        # A callback spends 10 s (a WAN pull) inside a 5 s outer window.
        k = SimKernel()
        k.at(1.0, lambda: k.run_until(k.now_s + 10))
        k.run_until(5.0)
        assert k.now_s == 11.0

    def test_run_unbounded_with_periodic_raises(self):
        kernel = SimKernel()
        kernel.every(10.0, lambda: None)
        with pytest.raises(SimulationError, match="periodic"):
            kernel.run()

    def test_periodic_fires_each_period_and_cancels(self):
        kernel = SimKernel()
        ticks = []
        periodic = kernel.every(10.0, lambda: ticks.append(kernel.now_s))
        kernel.run_until(35.0)
        assert ticks == [10.0, 20.0, 30.0]
        periodic.cancel()
        periodic.cancel()  # idempotent
        kernel.run_until(100.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_reschedule_moves_event(self):
        kernel = SimKernel()
        seen = []
        handle = kernel.at(5.0, lambda: seen.append(kernel.now_s))
        kernel.reschedule(handle, 7.5)
        kernel.run_until(10.0)
        assert seen == [7.5]

    def test_same_seed_same_rng_stream(self):
        a, b = SimKernel(seed=99), SimKernel(seed=99)
        assert [a.rng.random() for _ in range(5)] == [
            b.rng.random() for _ in range(5)
        ]


def _scripted_trace(seed, script):
    """Run a small scripted simulation; returns its JSONL trace."""
    kernel = SimKernel(seed=seed)
    for i, (delay, cores) in enumerate(script):
        jitter = delay + kernel.rng.random()

        def emit(i=i, jitter=jitter, cores=cores):
            kernel.trace.emit(
                "job.submit", t_s=kernel.now_s, subsystem="scheduler",
                job=f"j{i}", user="u", cores=cores,
            )

        kernel.after(jitter, emit)
    kernel.run(max_events=len(script))
    return kernel.trace.to_jsonl()


class TestTraceDeterminism:

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.lists(
            st.tuples(TIMES, st.integers(min_value=1, max_value=64)),
            min_size=1, max_size=12,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_same_seed_byte_identical_jsonl(self, seed, script):
        first = _scripted_trace(seed, script)
        second = _scripted_trace(seed, script)
        assert first == second  # byte-for-byte
        count, problems = validate_jsonl(first)
        assert problems == [] and count == len(script)

    def test_different_seed_diverges(self):
        script = [(1.0, 4), (1.0, 8)]
        assert _scripted_trace(1, script) != _scripted_trace(2, script)


class TestTraceBus:

    def test_emit_validates_kind_and_fields(self):
        bus = TraceBus()
        with pytest.raises(TraceError, match="unknown event kind"):
            bus.emit("job.teleport", t_s=0.0, subsystem="x")
        with pytest.raises(TraceError, match="missing data field"):
            bus.emit("job.end", t_s=0.0, subsystem="scheduler", job="j")
        with pytest.raises(TraceError, match="wanted int"):
            bus.emit("job.submit", t_s=0.0, subsystem="scheduler",
                     job="j", user="u", cores="four")

    def test_counters_and_count(self):
        bus = TraceBus()
        bus.emit("job.cancel", t_s=0.0, subsystem="scheduler", job="a")
        bus.emit("node.power_off", t_s=1.0, subsystem="power", node="n0")
        assert bus.count("job.cancel") == 1
        assert bus.count(subsystem="power") == 1
        assert bus.count() == 2 and len(bus) == 2

    def test_disabled_bus_is_noop(self):
        bus = TraceBus(enabled=False)
        assert bus.emit("job.cancel", t_s=0.0, subsystem="s", job="a") is None
        assert len(bus) == 0

    def test_emit_returns_the_recorded_event(self):
        """One record per event: what ``emit`` returns is the object in the
        log, and reading the log builds nothing."""
        bus = TraceBus()
        event = bus.emit("node.power_on", t_s=2.0, subsystem="power",
                         node="n1", boot_delay_s=60)
        assert (event.seq, event.t_s, event.kind) == (0, 2.0, "node.power_on")
        assert bus.events[-1] is event
        assert bus.events is bus.events

    def test_jsonl_roundtrip_validates(self):
        bus = TraceBus()
        bus.emit("mpi.barrier", t_s=1.0, subsystem="mpi", ranks=4)
        bus.emit("grid.xfer", t_s=2.0, subsystem="grid",
                 file="data.h5", nbytes=10, retries=0)
        count, problems = validate_jsonl(bus.to_jsonl())
        assert count == 2 and problems == []
        # extra fields beyond the schema are allowed
        line = json.loads(bus.to_jsonl().splitlines()[0])
        assert line["kind"] == "mpi.barrier"

    def test_validate_event_reports_problems(self):
        bad = {"seq": 0, "t": 1.0, "kind": "job.end", "sub": "scheduler",
               "data": {"job": "j"}}
        assert any("state" in p for p in validate_event(bad))
        assert validate_jsonl('{"seq": 1}\nnot json\n')[1]

    def test_validate_jsonl_rejects_nonincreasing_seq(self):
        bus = TraceBus()
        bus.emit("job.cancel", t_s=0.0, subsystem="s", job="a")
        line = bus.to_jsonl()
        _, problems = validate_jsonl(line + line)  # seq repeats
        assert any("not increasing" in p for p in problems)

    @pytest.mark.parametrize("line", ["42", "null", "[1,2]", '"x"'])
    def test_validate_jsonl_reports_a_non_object_line(self, line):
        bus = TraceBus()
        bus.emit("job.cancel", t_s=0.0, subsystem="s", job="a")
        event = bus.to_jsonl()
        count, problems = validate_jsonl(event + line + "\n" + event)
        assert count == 3
        assert problems == [
            "line 2: not a JSON object", "line 3: seq 0 not increasing",
        ]

    def test_cli_reports_a_non_object_file(self, tmp_path, capsys):
        scalar = tmp_path / "scalar.jsonl"
        scalar.write_text("42\n")
        assert sim_main([str(scalar)]) == 1
        assert "  line 1: not a JSON object" in capsys.readouterr().out

    def test_cli_reports_an_undecodable_file_and_checks_the_rest(
        self, tmp_path, capsys
    ):
        latin1 = tmp_path / "latin1.jsonl"
        latin1.write_bytes(b'{"sub":"caf\xe9"}\n')
        good = tmp_path / "good.jsonl"
        assert TraceBus().write_jsonl(good) == 0
        assert sim_main([str(latin1), str(good)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{latin1}: not UTF-8 text (byte 11: invalid continuation byte)",
            f"{good}: OK (0 events)",
        ]

    def test_write_jsonl_writes_to_jsonl(self, tmp_path):
        bus = TraceBus()
        bus.emit("job.cancel", t_s=0.0, subsystem="s", job="a")
        bus.emit("mpi.barrier", t_s=1.5, subsystem="mpi", ranks=4, tag=None)
        path = tmp_path / "trace.jsonl"
        assert bus.write_jsonl(path) == 2
        assert path.read_text() == bus.to_jsonl()


class _Level(enum.IntEnum):
    LOW = 1
    HUGE = 2**70


class _Tag(str):
    def __str__(self):
        return "not the content"

    __repr__ = __str__


class _Ratio(float):
    def __repr__(self):
        return "not the value"


_TEXT = st.text(st.characters(exclude_categories=()), max_size=8) | st.sampled_from(
    ['"', "\\", "{", "}", "{{x}}", "\\N{BULLET}", "{v0}", "\x00\x1f\x7f", "é€😀",
     "\ud800", "'\"{}"]
)
_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324, 2.2e-308]
) | st.floats().map(_Ratio)
_INTS = st.integers() | st.sampled_from([2**200, -(2**200), *_Level])
_FIELDS = {
    str: _TEXT | _TEXT.map(_Tag),
    int: _INTS,
    float: _FLOATS | _INTS,
    bool: st.booleans(),
}
_VALUES = st.recursive(
    st.one_of(st.none(), *_FIELDS.values()),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)
#: Names ``TraceBus.emit`` binds itself, so they cannot be data fields.
_EMIT_PARAMS = {"self", "kind", "t_s", "subsystem"}


class TestTraceExport:

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_export_equals_json_dumps_oracle(self, data):
        """Every kind, required fields in random order beside random extra
        fields of adversarial values, then one kind again with changing key
        sets: the shape-formatted export equals one ``json.dumps`` per event."""
        bus = TraceBus()

        def emit(kind):
            schema = EVENT_SCHEMA[kind]
            fields = {n: data.draw(_FIELDS[ty]) for n, ty in schema.items()}
            extras = data.draw(st.dictionaries(
                _TEXT.filter(lambda k: k not in schema and k not in _EMIT_PARAMS),
                _VALUES, max_size=2,
            ))
            items = data.draw(st.permutations([*fields.items(), *extras.items()]))
            bus.emit(
                kind,
                t_s=data.draw(_FLOATS | st.integers(-10**6, 10**6)),
                subsystem=data.draw(st.sampled_from(["sim", "a{b}", '"q"']) | _TEXT),
                **dict(items),
            )

        for kind in data.draw(st.permutations(sorted(EVENT_SCHEMA))):
            emit(kind)
        again = data.draw(st.sampled_from(sorted(EVENT_SCHEMA)))
        for _ in range(data.draw(st.integers(2, 4))):
            emit(again)
        assert bus.to_jsonl() == trace_json.to_jsonl(bus)
