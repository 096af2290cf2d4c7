"""Unit tests for the run-event bus (`repro.obs.events`)."""

import json

from repro.obs.events import (
    STAGE1,
    STAGE2,
    STAGE3,
    TRACE_FORMAT_VERSION,
    RunTrace,
    TraceEvent,
    run_end_fields,
)


class TestCanonicalOrdering:
    def test_run_start_sorts_first_regardless_of_emission(self):
        trace = RunTrace()
        trace.emit("collect.phase", stage=STAGE1, phase="ur")
        trace.emit("run.start", fingerprint="abc")
        events = trace.events()
        assert events[0]["event"] == "run.start"
        assert events[1]["event"] == "collect.phase"

    def test_run_end_family_sorts_last(self):
        trace = RunTrace()
        trace.emit("run.end", status="clean")
        trace.emit("stage.end", stage=STAGE3)
        names = [event["event"] for event in trace.events()]
        assert names == ["stage.end", "run.end"]

    def test_stages_sort_in_pipeline_order(self):
        trace = RunTrace()
        trace.emit("stage.start", stage=STAGE3)
        trace.emit("stage.start", stage=STAGE1)
        trace.emit("stage.start", stage=STAGE2)
        stages = [event["stage"] for event in trace.events()]
        assert stages == [STAGE1, STAGE2, STAGE3]

    def test_sub_ranks_within_one_stage(self):
        """stage.start < body < stage.end, however they were emitted
        chronologically."""
        trace = RunTrace()
        trace.emit("source.degraded", stage=STAGE2, source="pdns")
        trace.emit("stage.end", stage=STAGE2)
        trace.emit("stage.start", stage=STAGE2)
        names = [event["event"] for event in trace.events()]
        assert names == ["stage.start", "source.degraded", "stage.end"]

    def test_emission_order_breaks_ties_within_a_cell(self):
        trace = RunTrace()
        trace.emit("breaker.trip", stage=STAGE1, server="a")
        trace.emit("breaker.trip", stage=STAGE1, server="b")
        servers = [event["server"] for event in trace.events()]
        assert servers == ["a", "b"]

    def test_unknown_stage_ranks_between_stage3_and_run_end(self):
        trace = RunTrace()
        trace.emit("run.end")
        trace.emit("custom.event", stage="weird-stage")
        trace.emit("stage.end", stage=STAGE3)
        names = [event["event"] for event in trace.events()]
        assert names == ["stage.end", "custom.event", "run.end"]

    def test_seq_is_renumbered_after_sorting(self):
        trace = RunTrace()
        trace.emit("stage.end", stage=STAGE1)
        trace.emit("run.start")
        assert [event["seq"] for event in trace.events()] == [0, 1]


class TestTimingSeparation:
    def test_timing_events_never_enter_deterministic_stream(self):
        trace = RunTrace()
        trace.emit("run.start")
        trace.emit_timing("flow.channels", channels={})
        assert len(trace.events()) == 1
        assert len(trace.timing_events()) == 1

    def test_timing_events_are_marked(self):
        trace = RunTrace()
        trace.emit_timing("flow.stalled", stuck="collector")
        (event,) = trace.timing_events()
        assert event["section"] == "timing"

    def test_deterministic_lines_carry_no_section_key(self):
        trace = RunTrace()
        trace.emit("run.start")
        for line in trace.deterministic_lines():
            assert "section" not in json.loads(line)

    def test_full_document_orders_timing_after_deterministic(self):
        trace = RunTrace()
        trace.emit_timing("flow.channels")
        trace.emit("run.start")
        lines = trace.lines()
        kinds = [
            "timing" if "section" in json.loads(line) else "det"
            for line in lines
        ]
        assert kinds == ["det", "det", "timing"]


class TestSink:
    def test_finalize_writes_jsonl(self, tmp_path):
        path = tmp_path / "deep" / "trace.jsonl"
        trace = RunTrace(path)
        trace.emit("run.start", fingerprint="f")
        written = trace.finalize()
        assert written == path
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {
            "event": "trace.header",
            "format": TRACE_FORMAT_VERSION,
        }
        assert json.loads(lines[1])["event"] == "run.start"

    def test_finalize_is_idempotent_and_rewrites(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace = RunTrace(path)
        trace.emit("run.start")
        trace.finalize()
        first = path.read_text()
        trace.finalize()
        assert path.read_text() == first
        trace.emit("run.end")
        trace.finalize()
        assert "run.end" in path.read_text()

    def test_finalize_without_sink_is_a_noop(self):
        assert RunTrace().finalize() is None


class TestFieldSanitization:
    def test_non_finite_floats_become_null(self):
        trace = RunTrace()
        trace.emit("x", p99=float("inf"), nan=float("nan"), ok=1.5)
        (event,) = trace.events()
        assert event["p99"] is None
        assert event["nan"] is None
        assert event["ok"] == 1.5

    def test_sets_serialize_sorted(self):
        trace = RunTrace()
        trace.emit("x", names=frozenset({"b", "a", "c"}))
        (event,) = trace.events()
        assert event["names"] == ["a", "b", "c"]

    def test_unknown_objects_fall_back_to_str(self):
        class Odd:
            def __str__(self):
                return "odd!"

        trace = RunTrace()
        trace.emit("x", thing=Odd())
        (event,) = trace.events()
        assert event["thing"] == "odd!"

    def test_every_line_is_strict_json(self):
        trace = RunTrace()
        trace.emit("x", bad=float("-inf"), nested={"a": (1, 2)})
        for line in trace.lines():
            json.loads(line)  # must not raise


class TestCounters:
    def test_counters_count_deterministic_events_only(self):
        trace = RunTrace()
        trace.emit("stage.start", stage=STAGE1)
        trace.emit("stage.start", stage=STAGE2)
        trace.emit_timing("flow.channels")
        assert trace.counters() == {"stage.start": 2}


class TestRunEndFields:
    def test_unaccounted_is_zero_when_arithmetic_balances(self):
        class Metrics:
            queries = 10
            responses = 7
            timeouts = 3
            giveups = 1
            skipped = 0

        class Report:
            scan_metrics = Metrics()
            is_degraded = False
            classified = [1, 2]
            suspicious = [1]
            queries_sent = 10
            responses_seen = 7
            timeouts = 3

        fields = run_end_fields(Report())
        assert fields["unaccounted"] == 0
        assert fields["status"] == "clean"
        assert fields["giveups"] == 1

    def test_without_scan_metrics_report_counters_are_used(self):
        class Report:
            scan_metrics = None
            is_degraded = True
            classified = []
            suspicious = []
            queries_sent = 5
            responses_seen = 4
            timeouts = 0

        fields = run_end_fields(Report())
        assert fields["status"] == "degraded"
        assert fields["unaccounted"] == 1


class TestTraceEvent:
    def test_to_dict_omits_stage_when_unset(self):
        event = TraceEvent("run.start", None, {"a": 1}, 0)
        assert event.to_dict() == {"event": "run.start", "a": 1}

    def test_sort_key_shape(self):
        event = TraceEvent("stage.start", STAGE1, {}, 4)
        assert event.sort_key() == (1, 0, 4)
