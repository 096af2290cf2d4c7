"""Chaos harness: fault-injected runs vs the fault-free baseline.

The tentpole guarantee (ISSUE, PR 2): wherever the surviving quorum
covers a verdict, a degraded run classifies it *identically* to a
fault-free run — degradation shrinks the evidence base and is flagged,
it never silently flips verdicts.
"""

import pytest

from repro.core import URHunter
from repro.core.records import URCategory
from repro.intel.aggregator import ThreatIntelAggregator
from repro.pipeline import (
    FaultPlan,
    FlakyIPInfo,
    FlakyPassiveDNS,
    FlakyVendor,
)

from .conftest import CHAOS_SEEDS, FailingPlan, make_world


def unverifiable(entry) -> bool:
    return any(
        reason.startswith("unverifiable") for reason in entry.reasons
    )


def by_key(report):
    return {entry.record.key: entry for entry in report.classified}


def chaos_hunter(world, seed: int, error_rate: float) -> URHunter:
    """A hunter whose stage-2/3 data sources all fail at ``error_rate``."""
    hunter = URHunter.from_world(world)
    vendors = [
        FlakyVendor(
            vendor,
            FaultPlan(seed=seed + index, error_rate=error_rate),
        )
        for index, vendor in enumerate(world.vendors)
    ]
    hunter.intel = ThreatIntelAggregator(vendors)
    hunter.pdns = FlakyPassiveDNS(
        world.pdns, FaultPlan(seed=seed + 101, error_rate=error_rate)
    )
    hunter.stage2_ipinfo = FlakyIPInfo(
        world.ipinfo, FaultPlan(seed=seed + 202, error_rate=error_rate)
    )
    return hunter


class TestDeadVendorQuorum:
    """One of three vendors circuit-broken: the run completes, flags the
    degradation, and classifies per the surviving quorum."""

    @pytest.fixture(scope="class")
    def dead_vendor_run(self):
        world = make_world()
        dead_name = world.vendors[0].name
        hunter = URHunter.from_world(world)
        vendors = [FlakyVendor(world.vendors[0], FailingPlan())]
        vendors.extend(world.vendors[1:])
        hunter.intel = ThreatIntelAggregator(vendors)
        return world, dead_name, hunter.run()

    def test_run_completes_and_flags_degradation(self, dead_vendor_run):
        _, dead_name, report = dead_vendor_run
        assert report.is_degraded
        source = f"vendor:{dead_name}"
        assert source in report.degraded.degraded_source_names
        assert source in report.degraded.dead_sources

    def test_surviving_quorum_classifies_identically(
        self, dead_vendor_run
    ):
        world, dead_name, report = dead_vendor_run
        assert report.ip_verdicts
        for address, verdict in report.ip_verdicts.items():
            # ground truth straight from the unwrapped vendor fleet
            flaggers = {
                vendor.name
                for vendor in world.vendors
                if vendor.is_malicious(address)
            }
            surviving = flaggers - {dead_name}
            assert verdict.intel_flagged == bool(surviving)
            assert verdict.vendor_count == len(surviving)
            assert verdict.intel_partial

    def test_surviving_evidence_keeps_malicious_verdicts(
        self, dead_vendor_run, baseline_report
    ):
        _, _, report = dead_vendor_run
        chaos = by_key(report)
        for key, entry in by_key(baseline_report).items():
            if entry.category is not URCategory.MALICIOUS:
                continue
            counterpart = chaos[key]
            still_malicious = any(
                report.ip_verdicts[address].is_malicious
                for address in counterpart.corresponding_ips
            )
            if still_malicious:
                assert counterpart.category is URCategory.MALICIOUS

    def test_partial_verdicts_counted(self, dead_vendor_run):
        _, _, report = dead_vendor_run
        assert report.degraded.partial_ip_verdicts == len(
            report.ip_verdicts
        )


class TestSeededChaos:
    """Randomized (seeded) background flakiness across every source."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_classification_equivalence_where_quorum_survives(
        self, seed, baseline_report
    ):
        world = make_world()
        report = chaos_hunter(world, seed, error_rate=0.15).run()
        baseline = by_key(baseline_report)
        chaos = by_key(report)
        # same stage-1 collection: faults only hit stages 2 and 3
        assert set(chaos) == set(baseline)
        downgraded = 0
        for key, entry in chaos.items():
            if unverifiable(entry):
                downgraded += 1
                continue
            assert entry.category is baseline[key].category, (
                f"fault-free quorum verdict flipped for {key} "
                f"(seed {seed})"
            )
        if downgraded:
            assert report.is_degraded
            assert report.degraded.unverifiable_urs == downgraded
            assert len(report.unverifiable) == downgraded

    @pytest.mark.parametrize("seed", CHAOS_SEEDS[:1])
    def test_chaos_with_network_loss_still_completes(
        self, seed, baseline_report
    ):
        world = make_world()
        world.network.inject_faults(loss_rate=0.05, seed=seed)
        report = chaos_hunter(world, seed, error_rate=0.15).run()
        assert report.summary()
        baseline = by_key(baseline_report)
        chaos = by_key(report)
        # stage-1 loss may shrink the collection, never grow it
        assert set(chaos) <= set(baseline)
        for key, entry in chaos.items():
            if unverifiable(entry):
                continue
            assert entry.category is baseline[key].category

    @pytest.mark.parametrize("seed", CHAOS_SEEDS[:1])
    def test_chaos_run_reports_source_health(self, seed):
        world = make_world()
        hunter = chaos_hunter(world, seed, error_rate=0.4)
        report = hunter.run()
        assert report.is_degraded
        ledgers = report.degraded.sources
        # every faulted source family shows up in the accounting
        assert "pdns" in ledgers or "ipinfo" in ledgers or any(
            name.startswith("vendor:") for name in ledgers
        )
        for ledger in ledgers.values():
            assert ledger.calls >= ledger.successes + ledger.failures
