"""A rule-based intrusion detection system (Snort/Suricata stand-in).

URHunter's second malicious-UR condition is "IDS detects malicious traffic
toward the IP address in a malware sandbox evaluation ... with a severity
level of at least medium, excluding cases where malware only checks
network connectivity".  This engine reproduces that interface: signature
rules over flow content plus stateful rules over whole captures (scan
detection), each alert carrying a category (Figure 3(c)) and a severity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from ..net.traffic import FlowRecord, Protocol, TrafficCapture


class Severity(enum.IntEnum):
    """Alert severity; URHunter only accepts MEDIUM and above."""

    LOW = 1
    MEDIUM = 2
    HIGH = 3


class AlertCategory:
    """Figure 3(c)'s alert taxonomy."""

    TROJAN = "Trojan Activity"
    CC = "C&C Activity"
    PRIVACY = "Privacy Violation"
    BAD_TRAFFIC = "Bad Traffic"
    OTHER = "Other"
    #: informational: connectivity checks — never at or above MEDIUM
    CONNECTIVITY = "Network Connectivity"

    #: the categories counted by Figure 3(c)
    REPORTED = (TROJAN, OTHER, PRIVACY, CC, BAD_TRAFFIC)


@dataclass(frozen=True)
class Alert:
    """One IDS alert bound to the flow that triggered it."""

    sid: int
    message: str
    category: str
    severity: Severity
    flow: FlowRecord

    @property
    def dst(self) -> str:
        return self.flow.dst

    def describe(self) -> str:
        return (
            f"[{self.sid}] {self.severity.name} {self.category}: "
            f"{self.message} ({self.flow.src} -> {self.flow.dst}:"
            f"{self.flow.dst_port})"
        )


FlowPredicate = Callable[[FlowRecord], bool]


@dataclass(frozen=True)
class IdsRule:
    """A per-flow signature rule."""

    sid: int
    message: str
    category: str
    severity: Severity
    predicate: FlowPredicate

    def evaluate(self, flow: FlowRecord) -> Optional[Alert]:
        if self.predicate(flow):
            return Alert(
                sid=self.sid,
                message=self.message,
                category=self.category,
                severity=self.severity,
                flow=flow,
            )
        return None


CaptureRule = Callable[[Sequence[FlowRecord]], List[Alert]]


def payload_contains(*patterns: bytes) -> FlowPredicate:
    """Predicate: the flow payload excerpt contains any of ``patterns``."""

    def predicate(flow: FlowRecord) -> bool:
        payload = flow.metadata.get("payload")
        if not isinstance(payload, (bytes, bytearray)):
            return False
        return any(pattern in payload for pattern in patterns)

    return predicate


def port_is(*ports: int) -> FlowPredicate:
    def predicate(flow: FlowRecord) -> bool:
        return flow.dst_port in ports

    return predicate


def protocol_is(protocol: Protocol) -> FlowPredicate:
    def predicate(flow: FlowRecord) -> bool:
        return flow.protocol is protocol

    return predicate


def all_of(*predicates: FlowPredicate) -> FlowPredicate:
    def predicate(flow: FlowRecord) -> bool:
        return all(item(flow) for item in predicates)

    return predicate


class IdsEngine:
    """Evaluates rules over a capture; the sandbox's detection backend."""

    def __init__(
        self,
        rules: Iterable[IdsRule],
        capture_rules: Iterable[CaptureRule] = (),
    ):
        self.rules = list(rules)
        self.capture_rules = list(capture_rules)
        seen_sids = set()
        for rule in self.rules:
            if rule.sid in seen_sids:
                raise ValueError(f"duplicate rule sid {rule.sid}")
            seen_sids.add(rule.sid)

    def inspect(self, capture: TrafficCapture) -> List[Alert]:
        """All alerts for every flow in ``capture``, in flow order."""
        alerts: List[Alert] = []
        # one snapshot of views serves both kinds of rule
        flows = capture.flows
        for flow in flows:
            # DNS control-plane traffic is never alerted on by itself —
            # the whole point of the UR attack is that these lookups look
            # benign; alerts come from what the malware does next.
            if flow.protocol is Protocol.DNS:
                continue
            for rule in self.rules:
                alert = rule.evaluate(flow)
                if alert is not None:
                    alerts.append(alert)
        for capture_rule in self.capture_rules:
            alerts.extend(capture_rule(flows))
        return alerts

    @staticmethod
    def actionable(alerts: Iterable[Alert]) -> List[Alert]:
        """Alerts URHunter accepts: severity >= MEDIUM and not
        connectivity-only noise."""
        return [
            alert
            for alert in alerts
            if alert.severity >= Severity.MEDIUM
            and alert.category != AlertCategory.CONNECTIVITY
        ]
