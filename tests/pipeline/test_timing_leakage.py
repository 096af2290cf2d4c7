"""No wall-clock leakage into deterministic byte surfaces.

Two surfaces are byte-compared across runs (CI resume transcripts, the
warm-vs-cold equivalence suite): ``MeasurementReport.summary()`` and
the JSON checkpoints.  Wall-clock readings vary run to run, so any
timing figure on either surface would break the comparisons — timing
belongs exclusively to :meth:`Stage2Metrics.timing_dict`, which goes
to the metrics document's timing section only.
"""

import json

import pytest

from repro.core import URHunter
from repro.obs import RunTrace, build_metrics_document
from repro.pipeline import CheckpointStore, PipelineRunner, STAGE_ORDER
from repro.pipeline.checkpoint import encode_stage2, encode_stage2_metrics

from .conftest import make_world

FORBIDDEN = ("wall_s", "condition_s", "records/s", "wall=")


class TestNoTimingLeakage:
    @pytest.fixture(scope="class")
    def checkpointed_run(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("timing")
        hunter = URHunter.from_world(make_world())
        result = PipelineRunner(
            hunter, store=CheckpointStore(directory)
        ).run()
        return directory, result.report

    def test_report_summary_has_no_wall_clock(self, checkpointed_run):
        _, report = checkpointed_run
        text = report.summary().lower()
        assert "wall" not in text
        for token in FORBIDDEN:
            assert token not in text

    def test_metrics_split_timing_from_counters(self, checkpointed_run):
        _, report = checkpointed_run
        metrics = report.stage2_metrics
        assert "wall" not in metrics.summary()
        # the timing view is where wall clock lives — by design
        assert "wall_s" in metrics.timing_dict()

    def test_stage_checkpoints_have_no_wall_clock(self, checkpointed_run):
        directory, _ = checkpointed_run
        for stage in STAGE_ORDER:
            blob = (directory / f"{stage}.json").read_text()
            for token in ("wall_s", "condition_s"):
                assert token not in blob, f"{stage} leaks {token}"

    def test_encode_stage2_metrics_drops_timing_fields(
        self, checkpointed_run
    ):
        _, report = checkpointed_run
        payload = encode_stage2_metrics(report.stage2_metrics)
        assert payload is not None
        assert not {"wall_s", "condition_s"} & payload.keys()

    def test_segment_payload_has_no_wall_clock(self, checkpointed_run):
        """Stage 1's in-flight resume medium, one result file per UR
        group under ``groups/``, is byte-compared too."""
        directory, _ = checkpointed_run
        files = sorted((directory / "groups").glob("group-*.json"))
        assert files
        for path in files:
            blob = path.read_text()
            for token in ("wall_s", "condition_s"):
                assert token not in blob, f"{path.name} leaks {token}"

    def test_full_stage2_payload_round_trips_without_timing(
        self, checkpointed_run
    ):
        _, report = checkpointed_run
        hunter = URHunter.from_world(make_world())
        stage1 = hunter.stage1_collect()
        stage2 = hunter.stage2_exclude(stage1, validate=True)
        blob = json.dumps(encode_stage2(stage2, validated=True))
        assert "wall_s" not in blob and "condition_s" not in blob


class TestTraceAndMetricsDocLeakage:
    """The observability layer adds two more byte-compared surfaces:
    the trace's deterministic section and the metrics document's
    ``deterministic`` block.  Wall clock belongs exclusively to the
    trace's timing section and the document's ``timing`` block."""

    @pytest.fixture(scope="class")
    def traced_run(self):
        hunter = URHunter.from_world(make_world())
        trace = RunTrace()
        hunter.attach_trace(trace)
        report = hunter.run()
        return trace, report

    def test_deterministic_trace_has_no_wall_clock(self, traced_run):
        trace, _ = traced_run
        blob = "\n".join(trace.deterministic_lines())
        for token in FORBIDDEN:
            assert token not in blob, f"trace leaks {token}"

    def test_metrics_document_confines_timing(self, traced_run):
        _, report = traced_run
        document = build_metrics_document(report)
        deterministic = json.dumps(document["deterministic"])
        for token in FORBIDDEN:
            assert token not in deterministic, f"metrics leak {token}"
        # the timing block is where the wall clock *must* appear
        assert "wall_s" in json.dumps(document["timing"])
