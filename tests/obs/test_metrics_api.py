"""The report's metric blocks and the consolidated metrics document."""

import pytest

from repro.core import URHunter
from repro.obs.metrics import build_metrics_document
from repro.scenario import build_world, small_config


@pytest.fixture(scope="module")
def report():
    world = build_world(small_config(seed=7))
    return URHunter.from_world(world).run()


class TestReportBlocks:
    def test_to_dict_returns_plain_data(self, report):
        for snapshot in (report.scan_metrics, report.stage2_metrics):
            data = snapshot.to_dict()
            assert isinstance(data, dict) and data

    def test_summary_renders_each_block_under_its_heading(self, report):
        """The report's summary() text is a CI-diffed surface: each
        attached metric holder prints as its heading plus its own
        summary, in a fixed order."""
        blocks = "\n".join(
            [
                "scan engine metrics:",
                report.scan_metrics.summary(indent="  "),
                "stage-2 exclusion metrics:",
                report.stage2_metrics.summary(indent="  "),
            ]
        )
        assert report.summary().endswith(blocks)
        assert "resilience metrics:" not in report.summary()


class TestMetricsDocument:
    def test_sections_split(self, report):
        document = build_metrics_document(
            report,
            fingerprint="f" * 8,
            execution="batch",
            stage2_workers=1,
            channel_depth=64,
        )
        assert set(document) == {"format", "deterministic", "timing"}
        deterministic = document["deterministic"]
        assert deterministic["fingerprint"] == "f" * 8
        assert deterministic["report"]["classified"] == len(
            report.classified
        )
        assert "scan_engine" in deterministic
        assert "stage2_exclusion" in deterministic
        # wall-clock figures live only in the timing section
        assert "wall_s" not in str(deterministic)
        assert "wall_s" in str(document["timing"])

    def test_timing_context_records_execution_knobs(self, report):
        document = build_metrics_document(
            report, execution="stream", stage2_workers=4, channel_depth=8
        )
        assert document["timing"]["context"] == {
            "execution": "stream",
            "stage2_workers": 4,
            "channel_depth": 8,
        }

    def test_flow_channels_enter_timing_only(self, report):
        """``flow_metrics=`` stays for ``benchmarks/e2e``: whatever holder
        it passes is rendered into the timing block only."""

        class Channels:
            def to_dict(self):
                return {
                    "records": {"depth": 4, "max_occupancy": 2, "total": 9}
                }

        document = build_metrics_document(report, flow_metrics=Channels())
        assert document["timing"]["flow_channels"] == {
            "records": {"depth": 4, "max_occupancy": 2, "total": 9}
        }
        assert "flow_channels" not in document["deterministic"]

    def test_degraded_sources_absent_on_clean_run(self, report):
        document = build_metrics_document(report)
        assert "sources" not in document["deterministic"]
