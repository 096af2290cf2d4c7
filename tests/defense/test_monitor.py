"""Tests for repro.defense: reputation vs direct-resolution defenses."""

import pytest

from repro.defense import (
    DirectResolutionMonitor,
    ReputationDetector,
    score_defense,
    ur_retrieval_flows,
)
from repro.intel.aggregator import ThreatIntelAggregator
from repro.intel.vendor import SecurityVendor
from repro.net.traffic import FlowRecord, Protocol

CLIENT = "192.0.2.10"
ORG_RESOLVER = "10.50.0.1"
PROVIDER_NS = "10.0.0.1"  # a hosting provider's nameserver
PUBLIC_DNS = "8.8.8.8"
EVIL_IP = "6.6.6.6"


def dns_flow(dst, qname="trusted.com", src=CLIENT):
    return FlowRecord(
        timestamp=1.0,
        src=src,
        dst=dst,
        protocol=Protocol.DNS,
        dst_port=53,
        metadata={"qname": qname},
    )


def tcp_flow(dst, src=CLIENT):
    return FlowRecord(
        timestamp=2.0, src=src, dst=dst, protocol=Protocol.TCP, dst_port=443
    )


class TestReputationDetector:
    @pytest.fixture
    def detector(self):
        vendor = SecurityVendor("VT")
        vendor.flag(EVIL_IP)
        return ReputationDetector(
            intel=ThreatIntelAggregator([vendor]),
            domain_blocklist=["evil.example"],
        )

    def test_flags_blocklisted_domain(self, detector):
        detections = detector.inspect([dns_flow(ORG_RESOLVER, "evil.example")])
        assert len(detections) == 1
        assert detections[0].rule == "reputation:domain"

    def test_flags_subdomain_of_blocklisted(self, detector):
        detections = detector.inspect(
            [dns_flow(ORG_RESOLVER, "cdn.evil.example")]
        )
        assert detections

    def test_flags_blocklisted_destination(self, detector):
        detections = detector.inspect([tcp_flow(EVIL_IP)])
        assert detections[0].rule == "reputation:ip"

    def test_ur_retrieval_evades(self, detector):
        """The paper's core claim: the UR lookup uses a reputable domain
        at a reputable provider's nameserver — reputation sees nothing."""
        assert detector.inspect([dns_flow(PROVIDER_NS, "trusted.com")]) == []

    def test_clean_traffic_silent(self, detector):
        assert detector.inspect([tcp_flow("198.51.100.9")]) == []

    def test_works_without_intel(self):
        detector = ReputationDetector(domain_blocklist=["evil.example"])
        assert detector.inspect([tcp_flow(EVIL_IP)]) == []


class TestDirectResolutionMonitor:
    def test_flags_direct_nameserver_queries(self):
        monitor = DirectResolutionMonitor(approved_resolvers={ORG_RESOLVER})
        detections = monitor.inspect(
            [dns_flow(PROVIDER_NS, "trusted.com")]
        )
        assert len(detections) == 1
        assert detections[0].rule == "direct-resolution"
        assert "trusted.com" in detections[0].detail

    def test_approved_resolver_not_flagged(self):
        monitor = DirectResolutionMonitor(approved_resolvers={ORG_RESOLVER})
        assert monitor.inspect([dns_flow(ORG_RESOLVER)]) == []

    def test_allowlist_suppresses_public_dns(self):
        monitor = DirectResolutionMonitor(
            approved_resolvers={ORG_RESOLVER}, allowlist={PUBLIC_DNS}
        )
        assert monitor.inspect([dns_flow(PUBLIC_DNS)]) == []
        # ...but the provider nameserver is still caught.
        assert monitor.inspect([dns_flow(PROVIDER_NS)])

    def test_non_dns_traffic_ignored(self):
        monitor = DirectResolutionMonitor(approved_resolvers={ORG_RESOLVER})
        assert monitor.inspect([tcp_flow(PROVIDER_NS)]) == []

    def test_monitored_client_scope(self):
        # every client is monitored: a host outside the usual client
        # range resolving directly is flagged all the same
        monitor = DirectResolutionMonitor(approved_resolvers={ORG_RESOLVER})
        outside = dns_flow(PROVIDER_NS, src="203.0.113.99")
        detections = monitor.inspect([outside, dns_flow(PROVIDER_NS)])
        assert len(detections) == 2


class TestScoring:
    def test_score_defense_math(self):
        malicious = [dns_flow(PROVIDER_NS), dns_flow(PROVIDER_NS)]
        benign = [dns_flow(PUBLIC_DNS)]
        monitor = DirectResolutionMonitor(approved_resolvers={ORG_RESOLVER})
        detections = monitor.inspect(malicious + benign)
        score = score_defense("strict", detections, malicious, benign)
        assert score.detection_rate == 1.0
        assert score.false_positive_rate == 1.0
        assert "strict" in score.summary()

    def test_empty_sets(self):
        score = score_defense("x", [], [], [])
        assert score.detection_rate == 0.0
        assert score.false_positive_rate == 0.0


class TestEndToEnd:
    def test_ur_retrieval_flows_extracted(self, small_world):
        measured = {
            target.address for target in small_world.nameserver_targets
        }
        flows = ur_retrieval_flows(small_world.sandbox_reports, measured)
        assert flows  # the case-study malware queried provider NSes
        assert all(flow.protocol is Protocol.DNS for flow in flows)
        assert all(flow.dst in measured for flow in flows)

    def test_reputation_misses_ur_retrievals(self, small_world):
        """Quantified §3 claim: reputation-based detection sees none of
        the UR retrieval lookups (reputable domains, reputable servers)."""
        measured = {
            target.address for target in small_world.nameserver_targets
        }
        malicious = ur_retrieval_flows(
            small_world.sandbox_reports, measured
        )
        detector = ReputationDetector(intel=small_world.intel)
        detections = detector.inspect(malicious)
        dns_detections = [
            detection
            for detection in detections
            if detection.rule == "reputation:domain"
        ]
        assert dns_detections == []

    def test_evaluate_defenses_end_to_end(self, small_world):
        from repro.defense import evaluate_defenses

        scores = evaluate_defenses(small_world)
        assert scores["reputation"].detection_rate == 0.0
        assert scores["direct-strict"].detection_rate == 1.0
        assert scores["direct-strict"].false_positive_rate == 1.0
        assert scores["direct-allowlist"].false_positive_rate == 0.0

    def test_synthesized_benign_flows(self, small_world):
        from repro.defense import (
            DEFAULT_RESOLVER_ALLOWLIST,
            synthesize_benign_direct_flows,
        )

        flows = synthesize_benign_direct_flows(small_world)
        assert len(flows) == 15
        assert all(flow.dst in DEFAULT_RESOLVER_ALLOWLIST for flow in flows)
        assert all(flow.protocol is Protocol.DNS for flow in flows)

    def test_direct_monitor_catches_all_retrievals(self, small_world):
        measured = {
            target.address for target in small_world.nameserver_targets
        }
        malicious = ur_retrieval_flows(
            small_world.sandbox_reports, measured
        )
        monitor = DirectResolutionMonitor(
            approved_resolvers=set(small_world.open_resolver_ips)
        )
        detections = monitor.inspect(malicious)
        score = score_defense("strict", detections, malicious, [])
        assert score.detection_rate == 1.0
