"""A run configured for streaming is the batch run, for any channel
depth, worker count, and fault schedule.

There is one executor.  ``execution="stream"`` is accepted and dropped,
and the depth and worker counts are class constants nothing in a run
reads; every test here sets them to the values the streaming mode used
to take and compares ``MeasurementReport.summary()`` — the byte surface
the CLI prints and CI diffs — against the batch run.
"""

import pytest

from repro.core import HunterConfig, URHunter
from repro.flow import nodes
from repro.intel.aggregator import ThreatIntelAggregator
from repro.pipeline import (
    FaultPlan,
    FlakyIPInfo,
    FlakyPassiveDNS,
    FlakyVendor,
)

from ..conftest import naive_stage2
from .conftest import make_world, stream_hunter

DEPTHS = (1, 2, 16)
WORKERS = (1, 4)
FAULT_SEED = 11
FAULT_RATE = 0.2


def inject_faults(hunter: URHunter, world) -> URHunter:
    """Seeded faults on every stage-2/3 source (the chaos-suite plan)."""
    vendors = [
        FlakyVendor(
            vendor,
            FaultPlan(seed=FAULT_SEED + index, error_rate=FAULT_RATE),
        )
        for index, vendor in enumerate(world.vendors)
    ]
    hunter.intel = ThreatIntelAggregator(vendors)
    hunter.pdns = FlakyPassiveDNS(
        world.pdns,
        FaultPlan(seed=FAULT_SEED + 101, error_rate=FAULT_RATE),
    )
    hunter.stage2_ipinfo = FlakyIPInfo(
        world.ipinfo,
        FaultPlan(seed=FAULT_SEED + 202, error_rate=FAULT_RATE),
    )
    return hunter


class TestStreamEqualsBatch:
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_matrix_byte_identical(
        self, batch_summary, fenced_knobs, depth, workers
    ):
        fenced_knobs(depth, workers)
        hunter = stream_hunter()
        assert hunter.run().summary() == batch_summary

    def test_memoization_off_still_identical(self):
        # memoization state is itself printed in the summary, so the
        # comparison is against a batch run with the same knob
        batch = naive_stage2(URHunter.from_world(make_world()))
        stream = naive_stage2(stream_hunter())
        summary = batch.run().summary()
        assert "memoization: off" in summary
        assert stream.run().summary() == summary

    def test_channels_stay_bounded(self, fenced_knobs):
        """No channel exists to fill: a streaming-configured run records
        no flow statistics, and the flow package holds only the node
        names the harness rebinds."""
        fenced_knobs(2, 1)
        hunter = stream_hunter()
        hunter.run()
        assert hunter.last_flow_stats is None
        assert nodes.SuspicionNode is nodes.AnalysisNode
        assert nodes.AnalysisNode is nodes.TransformNode

    def test_batch_run_records_no_flow_stats(self):
        hunter = URHunter.from_world(make_world(), HunterConfig())
        hunter.run()
        assert hunter.last_flow_stats is None


class TestFaultedStreamEqualsFaultedBatch:
    """Same seeded fault plan → same degraded report, byte for byte.

    The call-count-seeded fault schedule lands on the same records only
    if a streaming-configured run issues its source calls in exactly the
    batch order.
    """

    @pytest.fixture(scope="class")
    def faulted_batch(self):
        world = make_world()
        hunter = inject_faults(URHunter.from_world(world), world)
        return hunter.run()

    @pytest.mark.parametrize("depth", (1, 16))
    @pytest.mark.parametrize("workers", WORKERS)
    def test_fault_schedule_preserved(
        self, faulted_batch, fenced_knobs, depth, workers
    ):
        fenced_knobs(depth, workers)
        world = make_world()
        hunter = inject_faults(stream_hunter(world=world), world)
        report = hunter.run()
        assert report.summary() == faulted_batch.summary()
        assert report.is_degraded == faulted_batch.is_degraded
