"""The malware sandbox: detonation plus IDS inspection.

One :class:`Sandbox` detonates samples on the simulated internet from a
dedicated victim address, collects the per-run traffic capture, runs the
IDS over it, and emits :class:`SandboxReport` objects — the unit of
evidence URHunter's stage 3 consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ..net.network import SimulatedInternet
from ..net.traffic import TrafficCapture
from .ids import Alert, IdsEngine
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

    def dns_queries(self) -> List[str]:
        """Names the sample looked up, in order."""
        return [qname for _, qname in self.capture.dns_questions()]


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
