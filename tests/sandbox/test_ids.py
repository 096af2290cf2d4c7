"""Tests for repro.sandbox.ids and repro.sandbox.rules."""

import pytest

from repro.net.traffic import FlowRecord, Protocol, TrafficCapture
from repro.sandbox.ids import (
    Alert,
    AlertCategory,
    IdsEngine,
    IdsRule,
    Severity,
    all_of,
    payload_contains,
    port_is,
    protocol_is,
)
from repro.sandbox.rules import (
    SCAN_THRESHOLD,
    default_capture_rules,
    default_rules,
)


def flow(payload=b"", port=80, protocol=Protocol.TCP, dst="6.6.6.6"):
    return FlowRecord(
        timestamp=1.0,
        src="10.0.0.1",
        dst=dst,
        protocol=protocol,
        dst_port=port,
        metadata={"payload": payload},
    )


def capture_of(*flows):
    capture = TrafficCapture()
    capture.extend(flows)
    return capture


class TestPredicates:
    def test_payload_contains(self):
        predicate = payload_contains(b"EVIL", b"BAD")
        assert predicate(flow(payload=b"xx EVIL xx"))
        assert predicate(flow(payload=b"BAD"))
        assert not predicate(flow(payload=b"ok"))

    def test_payload_missing_metadata(self):
        bare = FlowRecord(
            timestamp=1.0,
            src="a",
            dst="b",
            protocol=Protocol.TCP,
            dst_port=80,
        )
        assert not payload_contains(b"EVIL")(bare)

    def test_port_is(self):
        assert port_is(80, 443)(flow(port=443))
        assert not port_is(80)(flow(port=8080))

    def test_protocol_is(self):
        assert protocol_is(Protocol.SMTP)(flow(protocol=Protocol.SMTP))

    def test_combinators(self):
        both = all_of(port_is(25), protocol_is(Protocol.SMTP))
        assert both(flow(port=25, protocol=Protocol.SMTP))
        assert not both(flow(port=25))


class TestEngine:
    def _engine(self):
        return IdsEngine(
            [
                IdsRule(
                    sid=1,
                    message="evil payload",
                    category=AlertCategory.TROJAN,
                    severity=Severity.HIGH,
                    predicate=payload_contains(b"EVIL"),
                ),
                IdsRule(
                    sid=2,
                    message="conn check",
                    category=AlertCategory.CONNECTIVITY,
                    severity=Severity.LOW,
                    predicate=payload_contains(b"generate_204"),
                ),
            ]
        )

    def test_matching_flow_alerts(self):
        alerts = self._engine().inspect(capture_of(flow(payload=b"EVIL")))
        assert len(alerts) == 1
        assert alerts[0].sid == 1
        assert alerts[0].dst == "6.6.6.6"

    def test_non_matching_flow_silent(self):
        assert self._engine().inspect(capture_of(flow(payload=b"hi"))) == []

    def test_dns_flows_never_alerted(self):
        dns_flow = FlowRecord(
            timestamp=1.0,
            src="a",
            dst="b",
            protocol=Protocol.DNS,
            dst_port=53,
            metadata={"payload": b"EVIL"},
        )
        assert self._engine().inspect(capture_of(dns_flow)) == []

    def test_duplicate_sid_rejected(self):
        rule = IdsRule(
            sid=1,
            message="x",
            category=AlertCategory.OTHER,
            severity=Severity.LOW,
            predicate=port_is(1),
        )
        with pytest.raises(ValueError):
            IdsEngine([rule, rule])

    def test_actionable_filters_low_and_connectivity(self):
        engine = self._engine()
        alerts = engine.inspect(
            capture_of(
                flow(payload=b"EVIL"), flow(payload=b"GET /generate_204")
            )
        )
        assert len(alerts) == 2
        actionable = IdsEngine.actionable(alerts)
        assert len(actionable) == 1
        assert actionable[0].category == AlertCategory.TROJAN

    def test_alert_describe(self):
        alerts = self._engine().inspect(capture_of(flow(payload=b"EVIL")))
        text = alerts[0].describe()
        assert "HIGH" in text and "Trojan" in text


class TestDefaultRules:
    def setup_method(self):
        self.engine = IdsEngine(default_rules(), default_capture_rules())

    def _categories(self, *flows):
        return [alert.category for alert in self.engine.inspect(capture_of(*flows))]

    def test_trojan_beacon(self):
        categories = self._categories(flow(payload=b"POST /gate.php HTTP/1.1"))
        assert AlertCategory.TROJAN in categories

    def test_rat_heartbeat(self):
        categories = self._categories(flow(payload=b"SPECTER-HELLO id=1"))
        assert AlertCategory.CC in categories

    def test_exfil_marker(self):
        categories = self._categories(flow(payload=b"EXFIL-BEGIN chunk"))
        assert AlertCategory.PRIVACY in categories

    def test_smtp_covert_channel(self):
        categories = self._categories(
            flow(
                payload=b"X-Covert-Channel: v1",
                port=25,
                protocol=Protocol.SMTP,
            )
        )
        assert AlertCategory.TROJAN in categories

    def test_c2_port_heuristic(self):
        categories = self._categories(flow(payload=b"anything", port=4444))
        assert AlertCategory.CC in categories

    def test_port_zero_bad_traffic(self):
        categories = self._categories(flow(payload=b"\x00", port=0))
        assert AlertCategory.BAD_TRAFFIC in categories

    def test_connectivity_check_low_severity(self):
        alerts = self.engine.inspect(
            capture_of(flow(payload=b"GET /generate_204 HTTP/1.1"))
        )
        assert alerts[0].severity is Severity.LOW
        assert IdsEngine.actionable(alerts) == []

    def test_smb_probe(self):
        categories = self._categories(flow(payload=b"\x00probe", port=445))
        assert AlertCategory.OTHER in categories

    def test_scan_detector_fires_at_threshold(self):
        flows = [
            flow(payload=b"syn", port=445, dst=f"10.1.1.{index}")
            for index in range(SCAN_THRESHOLD)
        ]
        alerts = self.engine.inspect(capture_of(*flows))
        assert any("port scan" in alert.message for alert in alerts)

    def test_scan_detector_quiet_below_threshold(self):
        flows = [
            flow(payload=b"syn", port=9999, dst=f"10.1.1.{index}")
            for index in range(SCAN_THRESHOLD - 1)
        ]
        alerts = self.engine.inspect(capture_of(*flows))
        assert not any("port scan" in alert.message for alert in alerts)

    def test_benign_traffic_clean(self):
        alerts = self.engine.inspect(
            capture_of(flow(payload=b"GET / HTTP/1.1\r\nHost: x\r\n"))
        )
        assert IdsEngine.actionable(alerts) == []


class TestSeverity:
    def test_ordering(self):
        assert Severity.LOW < Severity.MEDIUM < Severity.HIGH
