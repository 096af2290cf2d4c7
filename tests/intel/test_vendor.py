"""Tests for repro.intel.vendor and repro.intel.aggregator."""

import pytest

from repro.intel.aggregator import ThreatIntelAggregator
from repro.intel.vendor import (
    SecurityVendor,
    default_vendor_fleet,
)
from repro.pipeline import FaultPlan, FlakyVendor, SourceTimeout


class TestSecurityVendor:
    def test_flag_and_query(self):
        vendor = SecurityVendor("VT")
        vendor.flag("6.6.6.6", ["Trojan"])
        assert vendor.is_malicious("6.6.6.6")
        assert vendor.tags("6.6.6.6") == {"Trojan"}

    def test_unflagged_address(self):
        vendor = SecurityVendor("VT")
        assert not vendor.is_malicious("1.1.1.1")
        assert vendor.tags("1.1.1.1") == frozenset()

    def test_tags_merge_on_reflag(self):
        vendor = SecurityVendor("VT")
        vendor.flag("6.6.6.6", ["Trojan"])
        vendor.flag("6.6.6.6", ["C&C"])
        assert vendor.tags("6.6.6.6") == {"Trojan", "C&C"}

    def test_first_seen_preserved(self):
        vendor = SecurityVendor("VT")
        vendor.flag("6.6.6.6", timestamp=100.0)
        vendor.flag("6.6.6.6", timestamp=200.0)
        assert vendor.verdict("6.6.6.6").first_seen == 100.0

    def test_clear_delists(self):
        vendor = SecurityVendor("VT")
        vendor.flag("6.6.6.6")
        vendor.clear("6.6.6.6")
        assert not vendor.is_malicious("6.6.6.6")

    def test_blacklist_and_len(self):
        vendor = SecurityVendor("VT")
        vendor.flag("6.6.6.6")
        vendor.flag("7.7.7.7")
        vendor.flag("8.8.8.8")
        vendor.clear("8.8.8.8")
        assert [
            address
            for address in ("6.6.6.6", "7.7.7.7", "8.8.8.8")
            if vendor.is_malicious(address)
        ] == ["6.6.6.6", "7.7.7.7"]
        assert len(vendor) == 2


class TestDefaultFleet:
    def test_named_vendors_first(self):
        fleet = default_vendor_fleet(5)
        assert [vendor.name for vendor in fleet[:3]] == [
            "VirusTotal",
            "QAX",
            "360 Security",
        ]
        assert len(fleet) == 5

    def test_small_fleet(self):
        fleet = default_vendor_fleet(2)
        assert [vendor.name for vendor in fleet] == ["VirusTotal", "QAX"]


class TestAggregator:
    @pytest.fixture
    def fleet(self):
        fleet = default_vendor_fleet(4)
        fleet[0].flag("6.6.6.6", ["Trojan"])
        fleet[1].flag("6.6.6.6", ["Botnet"])
        fleet[2].flag("7.7.7.7", ["Scanner"])
        return fleet

    def test_requires_vendors(self):
        with pytest.raises(ValueError):
            ThreatIntelAggregator([])

    def test_report_merges_tags(self, fleet):
        aggregator = ThreatIntelAggregator(fleet)
        report = aggregator.report("6.6.6.6")
        assert report.is_malicious
        assert report.vendor_count == 2
        assert report.tags == {"Trojan", "Botnet"}
        assert report.flagging_vendors == {"VirusTotal", "QAX"}

    def test_clean_address(self, fleet):
        aggregator = ThreatIntelAggregator(fleet)
        report = aggregator.report("9.9.9.9")
        assert not report.is_malicious
        assert report.vendor_count == 0

    def test_is_flagged(self, fleet):
        aggregator = ThreatIntelAggregator(fleet)
        assert aggregator.is_flagged("7.7.7.7")
        assert not aggregator.is_flagged("9.9.9.9")


class CountingVendor(SecurityVendor):
    """A vendor that counts its read traffic."""

    def __init__(self, name):
        super().__init__(name)
        self.reads = 0

    def is_malicious(self, address):
        self.reads += 1
        return super().is_malicious(address)


class SwitchedPlan:
    """A fault plan whose source is down until switched back up."""

    down = True

    def check(self, source):
        if self.down:
            raise SourceTimeout(source)


class TestAggregatorReads:
    @pytest.fixture
    def vendor(self):
        vendor = CountingVendor("VT")
        vendor.flag("6.6.6.6", ["Trojan"])
        return vendor

    def test_every_report_asks_the_fleet(self, vendor):
        aggregator = ThreatIntelAggregator([vendor])
        first = aggregator.report("6.6.6.6")
        second = aggregator.report("6.6.6.6")
        assert first == second
        assert vendor.reads == 2

    def test_a_report_after_a_vendor_failure_asks_it_again(self, vendor):
        plan = SwitchedPlan()
        aggregator = ThreatIntelAggregator([FlakyVendor(vendor, plan)])
        degraded = aggregator.report("6.6.6.6")
        assert degraded.failed_vendors == {"VT"}
        assert not degraded.is_malicious
        plan.down = False
        healed = aggregator.report("6.6.6.6")
        assert healed.failed_vendors == frozenset()
        assert healed.flagging_vendors == {"VT"}
        assert aggregator.source_health()["vendor:VT"].calls == 2

    def test_flag_after_a_report_is_seen(self, vendor):
        aggregator = ThreatIntelAggregator([vendor])
        assert not aggregator.is_flagged("9.9.9.9")
        vendor.flag("9.9.9.9")
        assert aggregator.is_flagged("9.9.9.9")

    def test_clear_after_a_report_is_seen(self, vendor):
        aggregator = ThreatIntelAggregator([vendor])
        assert aggregator.is_flagged("6.6.6.6")
        vendor.clear("6.6.6.6")
        assert not aggregator.is_flagged("6.6.6.6")

    def test_each_aggregator_has_its_own_guard(self, vendor):
        first = ThreatIntelAggregator([vendor])
        second = ThreatIntelAggregator([vendor])
        assert first.guard is not second.guard
        first.report("6.6.6.6")
        assert first.source_health()
        assert not second.source_health()

    def test_failed_vendor_excluded_from_quorum(self):
        healthy = SecurityVendor("QAX")
        healthy.flag("6.6.6.6")
        broken = SecurityVendor("VT")
        broken.flag("6.6.6.6")
        aggregator = ThreatIntelAggregator(
            [FlakyVendor(broken, FaultPlan(error_rate=1.0)), healthy]
        )
        report = aggregator.report("6.6.6.6")
        assert report.is_malicious
        assert report.flagging_vendors == {"QAX"}
        assert report.failed_vendors == {"VT"}
        assert report.is_partial
