"""The malware sandbox: detonation plus IDS inspection.

One :class:`Sandbox` detonates samples on the simulated internet from a
dedicated victim address, collects the per-run traffic capture, runs the
IDS over it, and emits :class:`SandboxReport` objects — the unit of
evidence URHunter's stage 3 consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from ..net.network import SimulatedInternet
from ..net.traffic import Protocol, TrafficCapture
from .ids import Alert, IdsEngine, Severity
from .malware import MalwareSample, SandboxEnvironment
from .rules import default_capture_rules, default_rules


@dataclass
class SandboxReport:
    """Everything observed while detonating one sample."""

    sample: MalwareSample
    capture: TrafficCapture
    alerts: List[Alert]
    notes: List[str] = field(default_factory=list)

    @property
    def actionable_alerts(self) -> List[Alert]:
        """Alerts at the severity URHunter accepts (>= medium,
        excluding connectivity checks)."""
        return IdsEngine.actionable(self.alerts)

    def alerted_ips(self, min_severity: Severity = Severity.MEDIUM) -> Set[str]:
        """Destination IPs of alerts at or above ``min_severity``."""
        return {
            alert.dst
            for alert in self.actionable_alerts
            if alert.severity >= min_severity
        }

    def contacted_ips(self) -> Set[str]:
        """Every non-DNS destination the sample touched."""
        return set(self.capture.destinations(exclude=Protocol.DNS))

    def dns_queries(self) -> List[str]:
        """Names the sample looked up, in order."""
        return [qname for _, qname in self.capture.dns_questions()]

    def queried_nameservers(self) -> Set[str]:
        """Nameserver IPs the sample queried directly."""
        return set(self.capture.destinations(Protocol.DNS))


class Sandbox:
    """A detonation environment with a fixed victim address and IDS."""

    def __init__(
        self,
        network: SimulatedInternet,
        victim_ip: str,
        default_resolver_ip: Optional[str] = None,
        ids: Optional[IdsEngine] = None,
    ):
        self.network = network
        self.victim_ip = victim_ip
        self.default_resolver_ip = default_resolver_ip
        self.ids = ids or IdsEngine(
            default_rules(), default_capture_rules()
        )
        network.register_stub(victim_ip)
        self.reports: List[SandboxReport] = []

    def run(self, sample: MalwareSample) -> SandboxReport:
        """Detonate ``sample`` and inspect its traffic."""
        environment = SandboxEnvironment(
            self.network, self.victim_ip, self.default_resolver_ip
        )
        sample.run(environment)
        alerts = self.ids.inspect(environment.capture)
        report = SandboxReport(
            sample=sample,
            capture=environment.capture,
            alerts=alerts,
            notes=list(environment.notes),
        )
        self.reports.append(report)
        return report

    def run_all(
        self, samples: Iterable[MalwareSample]
    ) -> List[SandboxReport]:
        return [self.run(sample) for sample in samples]

    # -- corpus-level views ---------------------------------------------------

    def alerts_by_destination(self) -> Dict[str, List[Alert]]:
        """Actionable alerts across all runs, grouped by destination IP."""
        grouped: Dict[str, List[Alert]] = {}
        for report in self.reports:
            for alert in report.actionable_alerts:
                grouped.setdefault(alert.dst, []).append(alert)
        return grouped

    def malicious_traffic_ips(self) -> Set[str]:
        """IPs with IDS-confirmed malicious traffic (URHunter condition 2)."""
        return set(self.alerts_by_destination())
