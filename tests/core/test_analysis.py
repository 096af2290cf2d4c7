"""Tests for repro.core.analysis: stage-3 evidence fusion."""

import pytest

from repro.core.analysis import MaliciousBehaviorAnalyzer
from repro.core.records import ClassifiedUR, URCategory, UndelegatedRecord
from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.intel.aggregator import ThreatIntelAggregator
from repro.intel.vendor import SecurityVendor
from repro.net.traffic import FlowRecord, Protocol, TrafficCapture
from repro.sandbox.ids import Alert, AlertCategory, Severity
from repro.sandbox.malware import MalwareSample
from repro.sandbox.sandbox import SandboxReport

INTEL_IP = "6.6.6.1"
IDS_IP = "6.6.6.2"
BOTH_IP = "6.6.6.3"
CLEAN_IP = "7.7.7.7"


def _alert(dst, severity=Severity.HIGH, category=AlertCategory.CC):
    flow = FlowRecord(
        timestamp=1.0,
        src="10.0.0.1",
        dst=dst,
        protocol=Protocol.TCP,
        dst_port=4444,
    )
    return Alert(
        sid=1, message="m", category=category, severity=severity, flow=flow
    )


def _sandbox_report(alerts):
    sample = MalwareSample(
        sample_id="s",
        family="F",
        variant="v",
        release_date="2022-01-01",
        behaviour=lambda sample, env: None,
    )
    return SandboxReport(sample=sample, capture=TrafficCapture(), alerts=alerts)


@pytest.fixture
def analyzer():
    vendor = SecurityVendor("VT")
    vendor.flag(INTEL_IP, ["Trojan"])
    vendor.flag(BOTH_IP, ["Botnet"])
    reports = [
        _sandbox_report([_alert(IDS_IP), _alert(BOTH_IP)]),
    ]
    return MaliciousBehaviorAnalyzer(
        ThreatIntelAggregator([vendor]), reports
    )


def suspicious_a(domain, ns, address):
    return ClassifiedUR(
        record=UndelegatedRecord(
            domain=name(domain),
            nameserver_ip=ns,
            provider="P",
            rrtype=RRType.A,
            rdata_text=address,
        ),
        category=URCategory.UNKNOWN,
    )


def suspicious_txt(domain, ns, value):
    return ClassifiedUR(
        record=UndelegatedRecord(
            domain=name(domain),
            nameserver_ip=ns,
            provider="P",
            rrtype=RRType.TXT,
            rdata_text=value,
        ),
        category=URCategory.UNKNOWN,
        txt_category="other",
    )


class TestIpVerdicts:
    def test_intel_only(self, analyzer):
        verdict = analyzer.verdict_for_ip(INTEL_IP)
        assert verdict.label_source == "intel"
        assert verdict.vendor_count == 1
        assert "Trojan" in verdict.tags

    def test_ids_only(self, analyzer):
        verdict = analyzer.verdict_for_ip(IDS_IP)
        assert verdict.label_source == "ids"
        assert AlertCategory.CC in verdict.alert_categories

    def test_both(self, analyzer):
        assert analyzer.verdict_for_ip(BOTH_IP).label_source == "both"

    def test_clean(self, analyzer):
        assert not analyzer.verdict_for_ip(CLEAN_IP).is_malicious

    def test_alert_categories_deduped(self):
        reports = [
            _sandbox_report([_alert(IDS_IP), _alert(IDS_IP), _alert(IDS_IP)])
        ]
        vendor = SecurityVendor("VT")
        analyzer = MaliciousBehaviorAnalyzer(
            ThreatIntelAggregator([vendor]), reports
        )
        verdict = analyzer.verdict_for_ip(IDS_IP)
        assert verdict.alert_categories == (AlertCategory.CC,)

    def test_severity_threshold(self):
        vendor = SecurityVendor("VT")
        reports = [_sandbox_report([_alert(IDS_IP, severity=Severity.LOW)])]
        analyzer = MaliciousBehaviorAnalyzer(
            ThreatIntelAggregator([vendor]),
            reports,
            min_severity=Severity.MEDIUM,
        )
        assert not analyzer.verdict_for_ip(IDS_IP).is_malicious

    def test_connectivity_category_never_counts(self):
        vendor = SecurityVendor("VT")
        reports = [
            _sandbox_report(
                [
                    _alert(
                        IDS_IP,
                        severity=Severity.HIGH,
                        category="Network Connectivity",
                    )
                ]
            )
        ]
        analyzer = MaliciousBehaviorAnalyzer(
            ThreatIntelAggregator([vendor]), reports
        )
        assert not analyzer.verdict_for_ip(IDS_IP).is_malicious


class TestCorrespondingIps:
    def test_a_record_is_its_address(self, analyzer):
        entry = suspicious_a("v.com", "10.0.0.1", INTEL_IP)
        ips = analyzer.corresponding_ips(entry.record, {})
        assert ips == [INTEL_IP]

    def test_txt_embedded_ips(self, analyzer):
        entry = suspicious_txt(
            "v.com", "10.0.0.1", f"v=spf1 ip4:{INTEL_IP} -all"
        )
        ips = analyzer.corresponding_ips(entry.record, {})
        assert ips == [INTEL_IP]

    def test_txt_cohosting_join(self, analyzer):
        a_entry = suspicious_a("v.com", "10.0.0.1", IDS_IP)
        txt_entry = suspicious_txt("v.com", "10.0.0.1", "cmd=blob")
        index = analyzer.build_a_record_index([a_entry, txt_entry])
        ips = analyzer.corresponding_ips(txt_entry.record, index)
        assert ips == [IDS_IP]

    def test_txt_join_requires_same_nameserver(self, analyzer):
        a_entry = suspicious_a("v.com", "10.0.0.1", IDS_IP)
        txt_entry = suspicious_txt("v.com", "10.0.0.2", "cmd=blob")
        index = analyzer.build_a_record_index([a_entry])
        assert analyzer.corresponding_ips(txt_entry.record, index) == []

    def test_txt_join_requires_same_domain(self, analyzer):
        a_entry = suspicious_a("v.com", "10.0.0.1", IDS_IP)
        txt_entry = suspicious_txt("other.com", "10.0.0.1", "cmd=blob")
        index = analyzer.build_a_record_index([a_entry])
        assert analyzer.corresponding_ips(txt_entry.record, index) == []

    def test_embedded_and_cohosted_merged(self, analyzer):
        a_entry = suspicious_a("v.com", "10.0.0.1", IDS_IP)
        txt_entry = suspicious_txt(
            "v.com", "10.0.0.1", f"v=spf1 ip4:{INTEL_IP} -all"
        )
        index = analyzer.build_a_record_index([a_entry])
        ips = analyzer.corresponding_ips(txt_entry.record, index)
        assert ips == [INTEL_IP, IDS_IP]


class TestAnalyze:
    def test_malicious_when_any_ip_malicious(self, analyzer):
        entries = [
            suspicious_a("v.com", "10.0.0.1", INTEL_IP),
            suspicious_a("v.com", "10.0.0.1", CLEAN_IP),
        ]
        result = analyzer.analyze(entries)
        categories = [entry.category for entry in result.classified]
        assert categories == [URCategory.MALICIOUS, URCategory.UNKNOWN]

    def test_txt_without_ip_excluded_and_counted(self, analyzer):
        entries = [suspicious_txt("v.com", "10.0.0.1", "cmd=opaque")]
        result = analyzer.analyze(entries)
        assert result.txt_without_ip == 1
        assert result.classified[0].category is URCategory.UNKNOWN
        assert "no-corresponding-ip" in result.classified[0].reasons

    def test_verdicts_recorded_per_ip(self, analyzer):
        entries = [
            suspicious_a("v.com", "10.0.0.1", INTEL_IP),
            suspicious_a("w.com", "10.0.0.2", IDS_IP),
        ]
        result = analyzer.analyze(entries)
        assert set(result.ip_verdicts) == {INTEL_IP, IDS_IP}
        assert len(result.malicious) == 2
        assert all(
            verdict.is_malicious for verdict in result.ip_verdicts.values()
        )

    def test_reason_records_evidence_source(self, analyzer):
        entries = [suspicious_a("v.com", "10.0.0.1", BOTH_IP)]
        result = analyzer.analyze(entries)
        assert any(
            "both" in reason for reason in result.classified[0].reasons
        )


class TestAblationSwitches:
    def _entries(self):
        return [
            suspicious_a("v.com", "10.0.0.1", INTEL_IP),
            suspicious_a("w.com", "10.0.0.1", IDS_IP),
        ]

    def test_intel_disabled(self):
        vendor = SecurityVendor("VT")
        vendor.flag(INTEL_IP)
        analyzer = MaliciousBehaviorAnalyzer(
            ThreatIntelAggregator([vendor]),
            [_sandbox_report([_alert(IDS_IP)])],
            use_intel=False,
        )
        result = analyzer.analyze(self._entries())
        malicious_ips = {
            entry.record.rdata_text for entry in result.malicious
        }
        assert malicious_ips == {IDS_IP}

    def test_cohost_join_disabled(self):
        vendor = SecurityVendor("VT")
        analyzer = MaliciousBehaviorAnalyzer(
            ThreatIntelAggregator([vendor]),
            [_sandbox_report([_alert(IDS_IP)])],
            use_cohost_join=False,
        )
        entries = [
            suspicious_a("v.com", "10.0.0.1", IDS_IP),
            suspicious_txt("v.com", "10.0.0.1", "cmd=blob"),
        ]
        result = analyzer.analyze(entries)
        # The A UR is still malicious, but the co-hosted TXT gets no
        # corresponding IP without the join.
        assert result.classified[0].category is URCategory.MALICIOUS
        assert result.classified[1].corresponding_ips == ()
        assert result.txt_without_ip == 1

    def test_ids_disabled(self):
        vendor = SecurityVendor("VT")
        vendor.flag(INTEL_IP)
        analyzer = MaliciousBehaviorAnalyzer(
            ThreatIntelAggregator([vendor]),
            [_sandbox_report([_alert(IDS_IP)])],
            use_ids=False,
        )
        result = analyzer.analyze(self._entries())
        malicious_ips = {
            entry.record.rdata_text for entry in result.malicious
        }
        assert malicious_ips == {INTEL_IP}
