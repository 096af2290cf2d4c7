"""The one MetricsSnapshot protocol across all three metric holders."""

import pytest

from repro.core import URHunter
from repro.core.parallel import Stage2Metrics
from repro.engine.metrics import ScanMetrics
from repro.obs.metrics import (
    MetricRegistry,
    MetricsSnapshot,
    build_metrics_document,
)
from repro.pipeline.resilience import SourceGuard, SourcesSnapshot
from repro.scenario import build_world, small_config


@pytest.fixture(scope="module")
def report():
    world = build_world(small_config(seed=7))
    return URHunter.from_world(world).run()


class TestProtocolConformance:
    """Every retrofitted holder satisfies the runtime-checkable protocol."""

    def test_scan_metrics(self):
        assert isinstance(ScanMetrics(), MetricsSnapshot)
        assert ScanMetrics.name == "scan-engine"

    def test_stage2_metrics(self):
        assert isinstance(Stage2Metrics(), MetricsSnapshot)
        assert Stage2Metrics.name == "stage2-exclusion"

    def test_sources_snapshot(self):
        assert isinstance(SourcesSnapshot(), MetricsSnapshot)
        assert SourcesSnapshot.name == "sources"

    def test_to_dict_returns_plain_data(self, report):
        for snapshot in (report.scan_metrics, report.stage2_metrics):
            data = snapshot.to_dict()
            assert isinstance(data, dict) and data


class TestMerge:
    def test_stage2_merge_sums_counters(self):
        a = Stage2Metrics(records=10, cache_hits=4, cache_misses=6,
                          distinct_keys=6, memoized=True)
        b = Stage2Metrics(records=5, cache_hits=1, cache_misses=4,
                          distinct_keys=4, memoized=True)
        a.merge(b)
        assert a.records == 15
        assert a.cache_hits == 5

    def test_sources_merge_folds_ledgers(self):
        guard_a, guard_b = SourceGuard(), SourceGuard()
        guard_a.health("pdns").calls = 3
        guard_b.health("pdns").calls = 2
        guard_b.health("ipinfo").calls = 1
        merged = guard_a.metrics_snapshot()
        merged.merge(guard_b.metrics_snapshot())
        assert merged.sources["pdns"].calls == 5
        assert merged.sources["ipinfo"].calls == 1


class TestRegistry:
    def test_registration_is_validated(self):
        registry = MetricRegistry()
        with pytest.raises(TypeError, match="does not implement"):
            registry.register(object())

    def test_get_by_name(self):
        registry = MetricRegistry()
        scan = registry.register(ScanMetrics())
        assert registry.get("scan-engine") is scan
        assert registry.get("nope") is None

    def test_render_matches_legacy_report_blocks(self, report):
        """The single renderer reproduces the bespoke summary() layout
        byte for byte — the report's summary() text is a CI-diffed
        surface and must not move."""
        expected = [
            "scan engine metrics:",
            report.scan_metrics.summary(indent="  "),
            "stage-2 exclusion metrics:",
            report.stage2_metrics.summary(indent="  "),
        ]
        lines = report.metric_registry().render_lines(indent="  ")
        assert lines == expected

    def test_report_summary_embeds_registry_rendering(self, report):
        rendered = "\n".join(
            report.metric_registry().render_lines(indent="  ")
        )
        assert rendered in report.summary()

    def test_generic_heading_fallback(self):
        class Bare:
            name = "bare"

            def to_dict(self):
                return {}

            def merge(self, other):
                pass

            def summary(self, indent=""):
                return f"{indent}(nothing)"

        registry = MetricRegistry()
        registry.register(Bare())
        assert registry.render_lines() == ["bare metrics:", "  (nothing)"]

    def test_registry_to_dict_keys_by_snapshot_name(self, report):
        registry = report.metric_registry()
        data = registry.to_dict()
        assert set(data) == {"scan-engine", "stage2-exclusion"}


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
