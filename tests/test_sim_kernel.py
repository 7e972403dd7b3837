"""The simulation kernel: time, event heap, timelines, trace bus,
determinism.

The property tests pin the contracts every refactored subsystem leans on:
the kernel fires, times and snapshots exactly as the three-object kernel
it replaced (``tests/oracles/kernel_queue.py``) — so simulated time never
decreases and events scheduled for the same instant fire in submission
order — and identical seeds produce byte-identical JSONL traces.
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
    SimKernel,
    Timeline,
    TraceBus,
    validate_event,
    validate_jsonl,
)
from repro.sim.__main__ import main as sim_main

from .oracles import kernel_queue, trace_json

TIMES = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False)


class TestClock:

    def test_advance_forward_and_equal(self):
        kernel = SimKernel()
        kernel.run_until(10.0)
        kernel.run_until(10.0)  # equal is a no-op
        assert kernel.now_s == 10.0

    def test_regression_raises(self):
        kernel = SimKernel()
        kernel.run_until(3.0)
        with pytest.raises(SimulationError, match="cannot run until"):
            kernel.run_until(2.0)
        assert kernel.now_s == 3.0


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
    """The kernel's pending-event heap."""

    def test_pops_in_time_order(self):
        kernel = SimKernel()
        fired = []
        kernel.at(2.0, lambda: fired.append("b"))
        kernel.at(1.0, lambda: fired.append("a"))
        assert kernel.run() == 2
        assert fired == ["a", "b"]

    def test_cancel_is_lazy_but_skipped(self):
        kernel = SimKernel()
        fired = []
        keep = kernel.at(1.0, lambda: fired.append("keep"))
        drop = kernel.at(0.5, lambda: fired.append("drop"))
        kernel.cancel(drop)
        assert kernel.pending_count == 1 and kernel.heap_size == 2
        assert kernel.step() is True and not keep.active
        assert kernel.step() is False
        assert fired == ["keep"] and kernel.now_s == 1.0

    def test_double_cancel_raises(self):
        kernel = SimKernel()
        h = kernel.at(1.0, lambda: None)
        kernel.cancel(h)
        with pytest.raises(SimulationError, match="already"):
            kernel.cancel(h)

    def test_fired_handle_cannot_be_cancelled(self):
        kernel = SimKernel()
        h = kernel.at(1.0, lambda: None)
        assert kernel.step() and not h.active
        with pytest.raises(SimulationError):
            kernel.cancel(h)

    def test_infinite_time_rejected(self):
        kernel = SimKernel()
        with pytest.raises(SimulationError):
            kernel.at(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            kernel.after(float("nan"), lambda: None)
        assert kernel.pending_count == 0

    def test_reschedule_takes_fresh_serial(self):
        """A rescheduled event fires AFTER events already queued for the
        same instant — re-entry at the back of that instant's FIFO."""
        kernel = SimKernel()
        fired = []
        moved = kernel.at(1.0, lambda: fired.append("moved"))
        kernel.at(5.0, lambda: fired.append("resident"))
        new = kernel.reschedule(moved, 5.0)
        assert not moved.active and new.active
        kernel.run()
        assert fired == ["resident", "moved"]

    @given(st.lists(st.tuples(TIMES, st.booleans()), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_property_equal_times_fire_in_submission_order(self, spec):
        """With coarsely bucketed times (forcing collisions), firing order
        is (time, submission serial) — stable FIFO within an instant."""
        kernel = SimKernel()
        popped = []
        handles = []
        for time_s, cancel in spec:
            bucket = float(int(time_s) % 3)  # force many identical times
            seq = len(handles)
            handles.append((
                kernel.at(bucket, lambda b=bucket, s=seq: popped.append((b, s))),
                cancel,
            ))
        for handle, cancel in handles:
            if cancel and handle.active:
                kernel.cancel(handle)
        kernel.run()
        assert popped == sorted(popped)
        assert len(popped) == sum(1 for h, c in handles if not c)


#: Times on a half-second grid, so sums of them are exact in binary.
HALVES = st.integers(min_value=-4, max_value=40).map(lambda n: n / 2)
KERNEL_OPS = st.tuples(
    st.sampled_from([
        "at", "after", "cancel", "reschedule", "every", "stop", "step",
        "run_until", "run",
    ]),
    HALVES,
    st.integers(min_value=0, max_value=63),
    st.sampled_from(["plain", "plain", "nest", "spawn"]),
)


def _observe(value):
    """A kernel call's outcome, comparable across the two implementations."""
    if hasattr(value, "seq"):  # an event handle
        return ("handle", value.time_s, value.seq, value.label, value.active)
    if hasattr(value, "period_s"):  # a periodic series
        return ("series", value.period_s, value.label, value.active)
    return value


def _drive(kernel, script):
    """Run ``script`` (drawn from ``KERNEL_OPS``) on ``kernel``; returns,
    per call, its outcome or error type, the clock, the ``(now_s, label)``
    firing log so far and ``state_dict()``."""
    fired, handles, series, seen = [], [], [], []

    def callback(label, kind, delay_s):
        def fire():
            fired.append((kernel.now_s, label))
            if kind == "nest":  # spend a duration from inside a callback
                kernel.run_until(kernel.now_s + delay_s)
            elif kind == "spawn":
                handles.append(
                    kernel.after(delay_s, callback(label + "'", "plain", 0.0),
                                 label=label + "'")
                )
        return fire

    for i, (op, t, index, kind) in enumerate(script):
        label = f"{op}{i}"
        cb = callback(label, kind, index % 4 / 2)
        try:
            if op == "at":
                out = kernel.at(kernel.now_s + t, cb, label=label)
            elif op == "after":
                out = kernel.after(t, cb, label=label)
            elif op == "cancel" and handles:
                out = kernel.cancel(handles[index % len(handles)])
            elif op == "reschedule" and handles:
                out = kernel.reschedule(handles[index % len(handles)],
                                        kernel.now_s + t)
            elif op == "every":  # plain: a nesting series would recurse
                first = None if index % 2 else kernel.now_s + index % 5
                out = kernel.every(t, callback(label, "plain", 0.0),
                                   first_at_s=first, label=label)
                series.append(out)
            elif op == "stop" and series:
                out = series[index % len(series)].cancel()
            elif op == "step":
                out = kernel.step()
            elif op == "run_until":
                out = kernel.run_until(kernel.now_s + t)
            elif op == "run":
                out = kernel.run()
            else:
                out = "skipped"
        except Exception as exc:  # noqa: BLE001 - the type is the observation
            out = type(exc).__name__
        if op in ("at", "after", "reschedule") and hasattr(out, "seq"):
            handles.append(out)
        seen.append((label, _observe(out), kernel.now_s, list(fired),
                     kernel.state_dict()))
    return seen


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

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("call", ["run_until", "run"])
    def test_non_finite_bound_refused(self, call, bound):
        """A NaN or infinite bound neither drains the queue nor spins on a
        periodic series: it is refused before anything fires."""
        kernel = SimKernel()
        kernel.every(1.0, lambda: None)
        kernel.at(50.0, lambda: None)
        with pytest.raises(SimulationError, match="cannot run until"):
            if call == "run":
                kernel.run(until_s=bound)
            else:
                kernel.run_until(bound)
        assert kernel.now_s == 0.0 and kernel.events_processed == 0
        assert kernel.pending_count == 2

    def test_run_unbounded_with_periodic_raises(self):
        kernel = SimKernel()
        kernel.every(10.0, lambda: None)
        with pytest.raises(SimulationError, match="periodic"):
            kernel.run()

    @pytest.mark.parametrize("period_s,first_at_s", [
        (math.nan, None), (math.inf, None), (-math.inf, None), (0.0, None),
        (-1.0, None), (1.0, -5.0),
    ], ids=["nan", "inf", "-inf", "zero", "negative", "first-in-the-past"])
    def test_refused_every_registers_no_series(self, period_s, first_at_s):
        kernel = SimKernel()
        kernel.run_until(1.0)
        with pytest.raises(SimulationError):
            kernel.every(period_s, lambda: None, first_at_s=first_at_s)
        assert kernel.periodic_count == 0 and kernel.pending_count == 0
        assert kernel.run() == 0  # no series is left to refuse an unbounded run

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

    def test_refused_reschedule_leaves_the_event_pending(self):
        kernel = SimKernel()
        handle = kernel.at(5.0, lambda: None)
        with pytest.raises(SimulationError):
            kernel.reschedule(handle, math.inf)
        assert handle.active and kernel.pending_count == 1

    def test_same_seed_same_rng_stream(self):
        a, b = SimKernel(seed=99), SimKernel(seed=99)
        assert [a.rng.random() for _ in range(5)] == [
            b.rng.random() for _ in range(5)
        ]

    @given(st.lists(KERNEL_OPS, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_property_agrees_with_the_three_object_kernel(self, script):
        """Random scripts of at/after/cancel/reschedule/every/stop/step/
        run_until/run, with callbacks that spend time themselves or
        schedule more, observe the same firing order, clock readings,
        snapshots and errors as the kernel that forwarded to a SimClock
        and an EventQueue.  The firing log is checked non-decreasing in
        time too: simulated time never goes backwards."""
        seen = _drive(SimKernel(), script)
        assert seen == _drive(kernel_queue.SimKernel(), script)
        fired = seen[-1][3]
        assert [t for t, _ in fired] == sorted(t for t, _ in fired)
        clock = [now for _, _, now, _, _ in seen]
        assert clock == sorted(clock)


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
    kernel.run()
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

    def test_cli_reports_an_unreadable_path_and_checks_the_rest(
        self, tmp_path, capsys
    ):
        good = tmp_path / "good.jsonl"
        assert TraceBus().write_jsonl(good) == 0
        assert sim_main([str(tmp_path), str(good)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{tmp_path}: cannot read (Is a directory)",
            f"{good}: OK (0 events)",
        ]

    @pytest.mark.parametrize(
        "rewrite",
        [lambda text: text.replace("\n", "\r\n"),
         lambda text: text.replace(",", ", ")],
        ids=["crlf", "re-spaced"],
    )
    def test_cli_rejects_a_rewritten_copy_of_a_good_trace(
        self, tmp_path, capsys, rewrite
    ):
        good, copy = tmp_path / "good.jsonl", tmp_path / "copy.jsonl"
        _three_event_bus().write_jsonl(good)
        copy.write_bytes(rewrite(good.read_text()).encode())
        assert sim_main([str(good)]) == 0
        assert sim_main([str(copy)]) == 1
        assert "  line 1: not canonical JSON" in capsys.readouterr().out

    def test_write_jsonl_writes_to_jsonl(self, tmp_path):
        bus = TraceBus()
        bus.emit("job.cancel", t_s=0.0, subsystem="s", job="a")
        bus.emit("mpi.barrier", t_s=1.5, subsystem="mpi", ranks=4, tag=None)
        path = tmp_path / "trace.jsonl"
        assert bus.write_jsonl(path) == 2
        assert path.read_text() == bus.to_jsonl()


def _three_event_bus():
    bus = TraceBus()
    for i, t in enumerate((1.0, 1.0, 2.0)):
        bus.emit("job.submit", t_s=t, subsystem="sched",
                 job=f"j{i}", user="u", cores=1)
    return bus


def _reencode(text, lineno, edit=lambda obj: obj, **dumps_kw):
    """``text`` with line ``lineno`` decoded, passed through ``edit`` and
    re-encoded by ``json.dumps(**dumps_kw)``, canonically by default."""
    lines = text.split("\n")
    obj = edit(json.loads(lines[lineno - 1]))
    lines[lineno - 1] = json.dumps(
        obj, **(dumps_kw or {"sort_keys": True, "separators": (",", ":")})
    )
    return "\n".join(lines)


class TestTraceFile:
    """What a valid trace file is: ``validate_jsonl`` is the one check."""

    @pytest.mark.parametrize("lineno,edit,expected", [
        (2, lambda obj: {**obj, "seq": 0}, ["line 2: seq 0 not increasing"]),
        (2, lambda obj: {k: v for k, v in obj.items() if k != "seq"},
         ["line 2: missing envelope field 'seq'"]),
        # True == 1, but it neither passes as a seq nor orders line 2's 1
        (1, lambda obj: {**obj, "seq": True},
         ["line 1: envelope field 'seq' has type bool"]),
    ], ids=["duplicate-seq", "missing-seq", "bool-seq"])
    def test_seq_must_be_an_increasing_int(self, lineno, edit, expected):
        text = _reencode(_three_event_bus().to_jsonl(), lineno, edit)
        assert validate_jsonl(text) == (3, expected)

    @pytest.mark.parametrize("rewrite,expected", [
        (lambda text: _reencode(text, 2, sort_keys=True),
         ["line 2: not canonical JSON"]),
        (lambda text: _reencode(text, 2, lambda obj: dict(reversed(obj.items())),
                                separators=(",", ":")),
         ["line 2: not canonical JSON"]),
        (lambda text: text.rstrip("\n"), ["line 3: not canonical JSON"]),
        (lambda text: text.replace("\n", "\r\n"),
         [f"line {n}: not canonical JSON" for n in (1, 2, 3)]),
    ], ids=["spaced-separators", "unsorted-keys", "no-final-newline", "crlf"])
    def test_every_line_must_be_canonical(self, rewrite, expected):
        text = _three_event_bus().to_jsonl()
        assert validate_jsonl(text) == (3, [])
        assert validate_jsonl(rewrite(text)) == (3, expected)

    def test_ordered_canonical_lines_must_still_match_the_schema(self):
        """Ordered, canonical, and still not a trace: ``job.submit`` needs
        ``user`` and ``cores``."""
        text = "".join(
            f'{{"data":{{"job":"j{i}"}},"kind":"job.submit","seq":{i},'
            f'"sub":"sched","t":{t}}}\n'
            for i, t in enumerate((1.0, 1.0, 1.0, 2.0))
        )
        assert validate_jsonl(text) == (4, [
            f"line {n}: job.submit: missing data field {name!r}"
            for n in (1, 2, 3, 4) for name in ("user", "cores")
        ])

    @pytest.mark.parametrize("char,expected", [
        ("\u2028", (2, ["line 1: not canonical JSON"])),
        ("\x85", (2, ["line 1: not canonical JSON"])),
        ("\x1e", (1, ["line 1: not JSON (Invalid control character at)"])),
    ], ids=["U+2028", "U+0085", "U+001E"])
    def test_only_a_newline_ends_a_line(self, char, expected):
        bus = TraceBus()
        bus.emit("job.cancel", t_s=0.0, subsystem="s", job=f"a{char}b")
        bus.emit("job.cancel", t_s=1.0, subsystem="s", job="c")
        text = bus.to_jsonl().replace(json.dumps(char)[1:-1], char)
        assert validate_jsonl(text) == expected


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


def _emit_drawn(bus, data, kind):
    """Emit ``kind`` with its required fields in random order beside random
    extra fields of adversarial values."""
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


class TestTraceExport:

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_export_equals_json_dumps_oracle(self, data):
        """Every kind, required fields in random order beside random extra
        fields of adversarial values, then one kind again with changing key
        sets: the shape-formatted export equals one ``json.dumps`` per event."""
        bus = TraceBus()
        for kind in data.draw(st.permutations(sorted(EVENT_SCHEMA))):
            _emit_drawn(bus, data, kind)
        again = data.draw(st.sampled_from(sorted(EVENT_SCHEMA)))
        for _ in range(data.draw(st.integers(2, 4))):
            _emit_drawn(bus, data, again)
        assert bus.to_jsonl() == trace_json.to_jsonl(bus)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_export_validates_and_any_reencoded_line_is_named(self, data):
        """A random emit script's export is a valid trace file; re-encoding
        any one of its lines non-canonically makes that line, and only that
        line, a problem."""
        bus = TraceBus()
        kinds = st.lists(st.sampled_from(sorted(EVENT_SCHEMA)), min_size=1, max_size=6)
        for kind in data.draw(kinds):
            _emit_drawn(bus, data, kind)
        lines = bus.to_jsonl().split("\n")
        assert validate_jsonl("\n".join(lines)) == (len(bus), [])
        k = data.draw(st.integers(0, len(bus) - 1))
        obj = json.loads(lines[k])
        lines[k] = data.draw(st.sampled_from([
            json.dumps(obj, sort_keys=True),
            json.dumps(dict(reversed(obj.items())), separators=(",", ":")),
            json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
            + " ",
            lines[k] + "\r",
        ]))
        assert validate_jsonl("\n".join(lines)) == (
            len(bus), [f"line {k + 1}: not canonical JSON"]
        )
