"""Case-study extraction (§5.3).

Given the world's sandbox reports and a measurement report, these
functions reconstruct the paper's three case studies from the observed
evidence — not from ground truth — the way an analyst reading sandbox
output would:

* **Dark.IoT**: which URs the variants resolved, the EmerDNS-to-UR shift;
* **Specter**: URs for ``ibm.com`` / ``api.github.com``, AV detection;
* **masquerading SPF**: nameserver/provider spread, same-/24 IPs,
  alert counts and high-risk traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.report import MeasurementReport
from ..core.txt import classify_txt, extract_ips
from ..dns.rdata import RRType
from ..net.address import same_slash24
from ..sandbox.ids import Severity
from ..sandbox.sandbox import SandboxReport


@dataclass
class FamilyCaseStudy:
    """Evidence about one malware family's UR usage."""

    family: str
    variants: List[str]
    sample_count: int
    #: FQDNs the samples resolved via direct nameserver queries
    ur_domains: List[str]
    #: nameserver IPs the samples queried directly
    nameservers: List[str]
    #: providers of those nameservers (when resolvable)
    providers: List[str]
    #: total AV detections across the samples (0 = fully undetected)
    max_vendor_detections: int
    #: actionable alert count across the family's runs
    alert_count: int
    used_alternative_roots: bool = False

    def summary(self) -> str:
        detection = (
            "undetected by all AV vendors"
            if self.max_vendor_detections == 0
            else f"detected by up to {self.max_vendor_detections} vendors"
        )
        return (
            f"{self.family}: {self.sample_count} samples "
            f"({', '.join(sorted(set(self.variants)))}), URs for "
            f"{', '.join(sorted(set(self.ur_domains)))} via "
            f"{len(set(self.nameservers))} nameservers "
            f"({', '.join(sorted(set(self.providers))) or 'unknown'}); "
            f"{self.alert_count} IDS alerts; {detection}"
        )


def family_case_study(
    family: str,
    reports: Sequence[SandboxReport],
    nameserver_provider: Dict[str, str],
) -> Optional[FamilyCaseStudy]:
    """Build the case study for one malware family from sandbox output."""
    family_reports = [
        report for report in reports if report.sample.family == family
    ]
    if not family_reports:
        return None
    ur_domains: List[str] = []
    nameservers: List[str] = []
    providers: List[str] = []
    variants: List[str] = []
    alert_count = 0
    alternative_roots = False
    for report in family_reports:
        variants.append(report.sample.variant)
        alert_count += len(report.actionable_alerts)
        for nameserver, qname in report.capture.dns_questions():
            nameservers.append(nameserver)
            provider = nameserver_provider.get(nameserver)
            if provider is not None:
                providers.append(provider)
                if qname not in ur_domains:
                    ur_domains.append(qname)
            else:
                # A lookup at a server outside the measured provider set:
                # an alternative root (EmerDNS) or the default resolver.
                alternative_roots = True
    return FamilyCaseStudy(
        family=family,
        variants=variants,
        sample_count=len(family_reports),
        ur_domains=ur_domains,
        nameservers=sorted(set(nameservers)),
        providers=sorted(set(providers)),
        max_vendor_detections=max(
            report.sample.vendor_detections for report in family_reports
        ),
        alert_count=alert_count,
        used_alternative_roots=alternative_roots,
    )


@dataclass
class SpfCaseStudy:
    """The masquerading-SPF covert-channel evidence."""

    domain: str
    nameserver_count: int
    provider_count: int
    providers: List[str]
    spf_ips: List[str]
    all_in_same_slash24: bool
    sample_count: int
    alert_count: int
    high_risk_alerts: int
    trojan_labeled_samples: int
    undetected_samples: int

    def summary(self) -> str:
        return (
            f"masquerading SPF for {self.domain}: "
            f"{self.nameserver_count} nameservers across "
            f"{self.provider_count} providers "
            f"({', '.join(self.providers)}); "
            f"{len(self.spf_ips)} IPs"
            + (" in the same /24" if self.all_in_same_slash24 else "")
            + f"; {self.sample_count} samples, {self.alert_count} alerts "
            f"({self.high_risk_alerts} high-risk); "
            f"{self.trojan_labeled_samples} Trojan-labeled, "
            f"{self.undetected_samples} undetected"
        )


def spf_case_study(
    report: MeasurementReport,
    sandbox_reports: Sequence[SandboxReport],
    domain: str = "speedtest.net",
) -> Optional[SpfCaseStudy]:
    """Reconstruct the SPF case study from measurement + sandbox data."""
    spf_entries = [
        entry
        for entry in report.classified
        if str(entry.record.domain) == domain
        and entry.record.rrtype == RRType.TXT
        and entry.is_suspicious
        and classify_txt(entry.record.rdata_text) == "spf"
    ]
    if not spf_entries:
        return None
    nameservers = sorted(
        {entry.record.nameserver_ip for entry in spf_entries}
    )
    providers = sorted({entry.record.provider for entry in spf_entries})
    spf_ips: List[str] = []
    for entry in spf_entries:
        for address in extract_ips(entry.record.rdata_text):
            if address not in spf_ips:
                spf_ips.append(address)
    same_24 = len(spf_ips) > 1 and all(
        same_slash24(spf_ips[0], address) for address in spf_ips[1:]
    )

    related = [
        sandbox_report
        for sandbox_report in sandbox_reports
        if any(
            dst in spf_ips
            for dst in sandbox_report.capture.destinations()
        )
    ]
    alerts = [
        alert
        for sandbox_report in related
        for alert in sandbox_report.actionable_alerts
        if alert.dst in spf_ips
    ]
    high_risk = [
        alert for alert in alerts if alert.severity >= Severity.HIGH
    ]
    trojan_labeled = sum(
        1
        for sandbox_report in related
        if "Trojan" in sandbox_report.sample.labels
    )
    undetected = sum(
        1
        for sandbox_report in related
        if sandbox_report.sample.vendor_detections == 0
    )
    return SpfCaseStudy(
        domain=domain,
        nameserver_count=len(nameservers),
        provider_count=len(providers),
        providers=providers,
        spf_ips=spf_ips,
        all_in_same_slash24=same_24,
        sample_count=len(related),
        alert_count=len(alerts),
        high_risk_alerts=len(high_risk),
        trojan_labeled_samples=trojan_labeled,
        undetected_samples=undetected,
    )


def all_case_studies(
    report: MeasurementReport,
    sandbox_reports: Sequence[SandboxReport],
    nameserver_provider: Dict[str, str],
) -> Dict[str, object]:
    """Build every §5.3 case study in one call."""
    out: Dict[str, object] = {}
    for family in ("Dark.IoT", "Specter"):
        case = family_case_study(
            family, sandbox_reports, nameserver_provider
        )
        if case is not None:
            out[family] = case
    spf = spf_case_study(report, sandbox_reports)
    if spf is not None:
        out["SPF-masquerade"] = spf
    return out
