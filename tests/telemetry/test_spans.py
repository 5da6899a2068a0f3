"""Unit tests for the flight recorder (phase spans, aggregation, export)."""

import json
import threading
import time

import pytest

from repro import telemetry
from repro.telemetry.spans import (
    DEFAULT_CAPACITY,
    NULL_SPAN,
    FlightRecorder,
    aggregate_spans,
    format_phase_tree,
    to_chrome_trace,
    write_chrome_trace,
)


@pytest.fixture
def recorder():
    return FlightRecorder().enable()


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert FlightRecorder().enabled is False

    def test_span_returns_shared_null_span(self):
        rec = FlightRecorder()
        sp = rec.span("anything", cat="x", attr=1)
        assert sp is NULL_SPAN
        with sp as inner:
            assert inner.span_id is None
            assert inner.parent_id is None
        assert rec.spans == []

    def test_add_is_a_noop(self):
        rec = FlightRecorder()
        assert rec.add("graft", 5.0) is None
        assert rec.spans == []

    def test_disable_reenable_preserves_ring(self, recorder):
        with recorder.span("kept"):
            pass
        recorder.disable()
        with recorder.span("dropped"):
            pass
        recorder.enable()
        assert [s.name for s in recorder.spans] == ["kept"]


class TestRecording:
    def test_span_records_wall_and_cpu(self, recorder):
        with recorder.span("work", cat="test", packets=7):
            time.sleep(0.002)
        (span,) = recorder.spans
        assert span.name == "work"
        assert span.cat == "test"
        assert span.attrs == {"packets": 7}
        assert span.wall_ms >= 1.0
        assert span.cpu_ms >= 0.0
        assert span.start_us >= 0.0
        assert span.parent_id is None

    def test_nesting_sets_parent_ids(self, recorder):
        with recorder.span("outer") as outer:
            assert recorder.current_id() == outer.span_id
            with recorder.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert recorder.current_id() is None
        by_name = {s.name: s for s in recorder.spans}
        # Inner exits (and is appended) first; both parents are correct.
        assert [s.name for s in recorder.spans] == ["inner", "outer"]
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None

    def test_exception_still_records_and_pops(self, recorder):
        with pytest.raises(RuntimeError):
            with recorder.span("fails"):
                raise RuntimeError("boom")
        assert recorder.current_id() is None
        assert [s.name for s in recorder.spans] == ["fails"]

    def test_ring_is_bounded(self):
        rec = FlightRecorder(capacity=4).enable()
        for i in range(10):
            with rec.span(f"s{i}"):
                pass
        assert rec.capacity == 4
        assert [s.name for s in rec.spans] == ["s6", "s7", "s8", "s9"]

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_CAPACITY

    def test_enable_can_resize(self, recorder):
        recorder.enable(capacity=2)
        for i in range(3):
            with recorder.span(f"s{i}"):
                pass
        assert recorder.capacity == 2
        assert len(recorder.spans) == 2
        with pytest.raises(ValueError):
            recorder.enable(capacity=0)

    def test_clear_resets_ring_and_timebase(self, recorder):
        with recorder.span("old"):
            time.sleep(0.001)
        assert recorder.now_us() > 0.0
        recorder.clear()
        assert recorder.spans == []
        with recorder.span("new"):
            pass
        (span,) = recorder.spans
        # The new span starts near the fresh epoch, not the old one's end.
        assert span.start_us < 50_000

    def test_threads_have_independent_stacks(self, recorder):
        seen = {}

        def worker():
            with recorder.span("thread-span") as sp:
                seen["parent"] = sp.parent_id
                time.sleep(0.001)

        with recorder.span("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        by_name = {s.name: s for s in recorder.spans}
        assert seen["parent"] is None  # not nested under main's span
        assert by_name["thread-span"].tid != by_name["main-span"].tid


class TestAdd:
    def test_add_defaults_to_current_parent_and_ending_now(self, recorder):
        with recorder.span("outer") as outer:
            span_id = recorder.add("grafted", 5.0, stage=2)
        grafted = next(s for s in recorder.spans if s.name == "grafted")
        assert grafted.span_id == span_id
        assert grafted.parent_id == outer.span_id
        assert grafted.wall_ms == 5.0
        assert grafted.attrs == {"stage": 2}
        # ends "now": start is wall_ms before the clock reading.
        assert grafted.start_us <= recorder.now_us() - 4_900

    def test_add_with_explicit_parent_and_start(self, recorder):
        with recorder.span("replay") as sp:
            replay_id = sp.span_id
        pc = time.perf_counter()
        start = recorder.rel_us(pc)
        span_id = recorder.add(
            "external", 3.0, parent_id=replay_id, start_us=start
        )
        grafted = next(s for s in recorder.spans if s.span_id == span_id)
        assert grafted.parent_id == replay_id
        assert grafted.start_us == pytest.approx(start)

    def test_add_root_span(self, recorder):
        recorder.add("root", 1.0, parent_id=None)
        (span,) = recorder.spans
        assert span.parent_id is None


class TestAggregation:
    def _spanfall(self, recorder):
        """Two 'epochs' of the same phase names, plus an orphan."""
        for _ in range(2):
            with recorder.span("rotate"):
                with recorder.span("snapshot"):
                    pass
                with recorder.span("reset"):
                    pass
        recorder.add("orphan", 2.0, parent_id=12345)  # parent not in ring

    def test_groups_by_name_along_parent_chains(self, recorder):
        self._spanfall(recorder)
        root = aggregate_spans(recorder.spans)
        rotate = root.children["rotate"]
        assert rotate.count == 2
        assert set(rotate.children) == {"snapshot", "reset"}
        assert rotate.children["snapshot"].count == 2
        # Root totals sum the top level; the orphan became a root.
        assert "orphan" in root.children
        assert root.wall_ms == pytest.approx(
            rotate.wall_ms + root.children["orphan"].wall_ms
        )

    def test_self_time_and_coverage(self, recorder):
        with recorder.span("outer"):
            recorder.add("inner", 1.0)
            time.sleep(0.004)
        root = aggregate_spans(recorder.spans)
        outer = root.find("outer")
        assert outer is not None
        assert outer.self_ms == pytest.approx(outer.wall_ms - 1.0)
        assert 0.0 < outer.coverage < 1.0
        assert root.find("inner").wall_ms == pytest.approx(1.0)
        assert root.find("missing") is None

    def test_to_dict_shape(self, recorder):
        self._spanfall(recorder)
        payload = aggregate_spans(recorder.spans).to_dict()
        assert payload["name"] == "total"
        names = {child["name"] for child in payload["children"]}
        assert {"rotate", "orphan"} <= names

    def test_format_phase_tree(self, recorder):
        self._spanfall(recorder)
        text = format_phase_tree(aggregate_spans(recorder.spans), min_pct=0.0)
        assert "rotate" in text
        assert "snapshot" in text
        assert text.splitlines()[-1].startswith("total")
        assert "100.0%" in text

    def test_format_empty_tree(self):
        text = format_phase_tree(aggregate_spans([]))
        assert text.splitlines()[-1].startswith("total")


class TestChromeExport:
    def test_trace_event_shape(self, recorder):
        with recorder.span("outer", cat="svc", epoch=3):
            with recorder.span("inner"):
                pass
        trace = to_chrome_trace(recorder.spans, meta={"workload": "test"})
        assert trace["displayTimeUnit"] == "ms"
        assert trace["otherData"] == {"workload": "test"}
        events = trace["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == 1
            assert event["ts"] >= 0
            assert event["dur"] >= 0
        outer = next(e for e in events if e["name"] == "outer")
        inner = next(e for e in events if e["name"] == "inner")
        assert outer["cat"] == "svc"
        assert inner["cat"] == "flymon"  # empty cat gets the default
        assert outer["args"]["epoch"] == 3
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        # dur is microseconds (wall_ms * 1e3).
        span = next(s for s in recorder.spans if s.name == "outer")
        assert outer["dur"] == pytest.approx(span.wall_ms * 1e3, abs=0.01)

    def test_non_jsonable_attrs_become_strings(self, recorder):
        recorder.add("span", 1.0, obj=object())
        trace = to_chrome_trace(recorder.spans)
        payload = json.dumps(trace)  # must not raise
        assert "span" in payload

    def test_write_chrome_trace_round_trips(self, recorder, tmp_path):
        with recorder.span("phase"):
            pass
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), recorder.spans, meta={"packets": 10})
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"][0]["name"] == "phase"
        assert loaded["otherData"]["packets"] == 10


class TestTelemetryWiring:
    def test_module_recorder_is_telemetrys(self):
        assert telemetry.RECORDER is telemetry.TELEMETRY.recorder

    def test_enable_disable_helpers(self):
        try:
            rec = telemetry.enable_recorder(capacity=16)
            assert rec is telemetry.RECORDER
            assert rec.enabled and rec.capacity == 16
        finally:
            telemetry.RECORDER.enable(capacity=DEFAULT_CAPACITY)
            telemetry.disable_recorder()
        assert telemetry.RECORDER.enabled is False

    def test_reset_clears_recorder(self):
        try:
            telemetry.enable_recorder()
            with telemetry.RECORDER.span("stale"):
                pass
            assert telemetry.RECORDER.spans
            telemetry.reset()
            assert telemetry.RECORDER.spans == []
        finally:
            telemetry.disable_recorder()
            telemetry.reset()
