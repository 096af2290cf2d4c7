"""The tentpole invariant: the streaming report is byte-identical to
the batch report for any channel depth, worker count, and fault
schedule.

Every test here compares ``MeasurementReport.summary()`` — the byte
surface the CLI prints and CI diffs — between the two execution modes.
"""

import pytest

from repro.core import HunterConfig, URHunter
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
    def test_matrix_byte_identical(self, batch_summary, depth, workers):
        hunter = stream_hunter(depth=depth, workers=workers)
        assert hunter.run().summary() == batch_summary

    def test_memoization_off_still_identical(self):
        # memoization state is itself printed in the summary, so the
        # comparison is against a batch run with the same knob
        batch = naive_stage2(URHunter.from_world(make_world()))
        stream = naive_stage2(stream_hunter())
        summary = batch.run().summary()
        assert "memoization: off" in summary
        assert stream.run().summary() == summary

    def test_channels_stay_bounded(self):
        hunter = stream_hunter(depth=2)
        hunter.run()
        stats = hunter.last_flow_stats
        assert stats is not None
        assert stats.max_occupancy <= 2
        # every edge actually carried traffic
        assert all(channel.total > 0 for channel in stats.channels)

    def test_batch_run_records_no_flow_stats(self):
        hunter = URHunter.from_world(make_world(), HunterConfig())
        hunter.run()
        assert hunter.last_flow_stats is None


class TestFaultedStreamEqualsFaultedBatch:
    """Same seeded fault plan → same degraded report, byte for byte.

    This is the hard half of the invariant: the streaming exclusion
    stage must issue source calls in exactly the batch order, or the
    call-count-seeded fault schedule would land on different records.
    """

    @pytest.fixture(scope="class")
    def faulted_batch(self):
        world = make_world()
        hunter = inject_faults(URHunter.from_world(world), world)
        return hunter.run()

    @pytest.mark.parametrize("depth", (1, 16))
    @pytest.mark.parametrize("workers", WORKERS)
    def test_fault_schedule_preserved(
        self, faulted_batch, depth, workers
    ):
        world = make_world()
        hunter = inject_faults(
            stream_hunter(depth=depth, workers=workers, world=world),
            world,
        )
        report = hunter.run()
        assert report.summary() == faulted_batch.summary()
        assert report.is_degraded == faulted_batch.is_degraded
