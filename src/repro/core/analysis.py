"""Stage 3 — malicious behaviour analysis (§4.3).

For each suspicious UR, URHunter determines its *corresponding IP
addresses*:

* A records — the address itself;
* TXT records — addresses embedded in the RDATA, plus the address of an A
  UR for the same domain on the same nameserver (the co-hosting join);
* TXT records with no corresponding IP are excluded from maliciousness
  analysis (they remain unknown).

An IP is malicious when (1) threat intelligence flags it or (2) the IDS
saw malicious traffic toward it at severity >= medium in sandbox runs.
A UR is malicious when any corresponding IP is malicious.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..dns.name import Name
from ..dns.rdata import RRType
from ..intel.aggregator import ThreatIntelAggregator
from ..sandbox.ids import Alert, Severity
from ..sandbox.sandbox import SandboxReport
from .records import ClassifiedUR, IpVerdict, URCategory, UndelegatedRecord
from .txt import extract_ips


@dataclass
class MaliciousAnalysisResult:
    """Stage-3 output: final verdicts plus the per-IP evidence."""

    classified: List[ClassifiedUR]
    ip_verdicts: Dict[str, IpVerdict]
    #: TXT URs dropped for having no corresponding IP (§4.3, limitation 2)
    txt_without_ip: int = 0

    @property
    def malicious(self) -> List[ClassifiedUR]:
        return [entry for entry in self.classified if entry.is_malicious]

    def malicious_ips(self) -> List[IpVerdict]:
        return [
            verdict
            for verdict in self.ip_verdicts.values()
            if verdict.is_malicious
        ]

    @property
    def partial_ip_verdicts(self) -> int:
        """IPs whose intel verdict covers only part of the vendor fleet."""
        return sum(
            1
            for verdict in self.ip_verdicts.values()
            if verdict.intel_partial
        )


class MaliciousBehaviorAnalyzer:
    """Fuses threat intelligence and sandbox IDS evidence."""

    def __init__(
        self,
        intel: ThreatIntelAggregator,
        sandbox_reports: Sequence[SandboxReport] = (),
        min_severity: Severity = Severity.MEDIUM,
        use_intel: bool = True,
        use_ids: bool = True,
        use_cohost_join: bool = True,
    ):
        self.intel = intel
        self.sandbox_reports = list(sandbox_reports)
        self.min_severity = min_severity
        #: ablation switches: disable one evidence source
        self.use_intel = use_intel
        self.use_ids = use_ids
        #: ablation switch: the §4.3 A/TXT co-hosting join
        self.use_cohost_join = use_cohost_join
        self._ids_index: Optional[Dict[str, List[Alert]]] = None

    # -- IDS evidence ----------------------------------------------------

    def _alerts_by_ip(self) -> Dict[str, List[Alert]]:
        """Actionable alerts across all sandbox runs, grouped by dst IP."""
        if self._ids_index is None:
            index: Dict[str, List[Alert]] = {}
            for report in self.sandbox_reports:
                for alert in report.alerts:
                    if alert.severity < self.min_severity:
                        continue
                    if alert.category == "Network Connectivity":
                        continue
                    index.setdefault(alert.dst, []).append(alert)
            self._ids_index = index
        return self._ids_index

    # -- per-IP verdicts ----------------------------------------------------

    def verdict_for_ip(self, address: str) -> IpVerdict:
        """Combine both evidence sources for one address."""
        report = self.intel.report(address) if self.use_intel else None
        alerts = self._alerts_by_ip().get(address, []) if self.use_ids else []
        # One IP contacted by chatty malware raises the same alert many
        # times; categories are deduped so the Figure 3(c) mix reflects
        # distinct behaviours, not beacon frequency.
        categories: List[str] = []
        for alert in alerts:
            if alert.category not in categories:
                categories.append(alert.category)
        return IpVerdict(
            address=address,
            intel_flagged=bool(report is not None and report.is_malicious),
            ids_flagged=bool(alerts),
            vendor_count=report.vendor_count if report is not None else 0,
            tags=report.tags if report is not None else frozenset(),
            alert_categories=tuple(categories),
            intel_partial=bool(report is not None and report.is_partial),
        )

    # -- corresponding IPs ----------------------------------------------------

    @staticmethod
    def corresponding_ips(
        record: UndelegatedRecord,
        a_record_index: Dict[Tuple[Name, str], List[str]],
    ) -> List[str]:
        """The IPs §4.3 associates with one UR.

        ``a_record_index`` maps (domain, nameserver_ip) to the addresses
        of suspicious A URs — the co-hosting join source.
        """
        if record.rrtype == RRType.A:
            return [record.rdata_text]
        if record.rrtype == RRType.TXT:
            embedded = extract_ips(record.rdata_text)
            cohosted = a_record_index.get(
                (record.domain, record.nameserver_ip), []
            )
            merged: List[str] = []
            for address in [*embedded, *cohosted]:
                if address not in merged:
                    merged.append(address)
            return merged
        if record.rrtype == RRType.MX:
            # Future-work record type: the exchange hostname carries no
            # address itself; only the co-hosted A join applies.
            return list(
                a_record_index.get(
                    (record.domain, record.nameserver_ip), []
                )
            )
        return []

    @staticmethod
    def build_a_record_index(
        suspicious: Iterable[ClassifiedUR],
    ) -> Dict[Tuple[Name, str], List[str]]:
        """Index suspicious A URs by (domain, nameserver) for the join."""
        index: Dict[Tuple[Name, str], List[str]] = {}
        for entry in suspicious:
            if entry.record.rrtype != RRType.A:
                continue
            key = (entry.record.domain, entry.record.nameserver_ip)
            bucket = index.setdefault(key, [])
            if entry.record.rdata_text not in bucket:
                bucket.append(entry.record.rdata_text)
        return index

    # -- the stage itself ------------------------------------------------------

    def refine_entry(
        self,
        entry: ClassifiedUR,
        a_index: Dict[Tuple[Name, str], List[str]],
        ip_verdicts: Dict[str, IpVerdict],
    ) -> Tuple[ClassifiedUR, bool]:
        """Refine one suspicious entry into malicious / unknown.

        ``ip_verdicts`` is the shared first-seen ledger: new addresses
        are looked up (in the entry's IP order) and appended, known ones
        are reused.  Returns the refined entry and whether it counted
        toward ``txt_without_ip``.
        """
        ips = self.corresponding_ips(entry.record, a_index)
        if not ips:
            return (
                ClassifiedUR(
                    record=entry.record,
                    category=URCategory.UNKNOWN,
                    reasons=entry.reasons + ("no-corresponding-ip",),
                    corresponding_ips=(),
                    txt_category=entry.txt_category,
                ),
                entry.record.rrtype == RRType.TXT,
            )
        for address in ips:
            if address not in ip_verdicts:
                ip_verdicts[address] = self.verdict_for_ip(address)
        malicious = any(
            ip_verdicts[address].is_malicious for address in ips
        )
        reasons = list(entry.reasons)
        if malicious:
            sources = {
                ip_verdicts[address].label_source
                for address in ips
                if ip_verdicts[address].is_malicious
            }
            reasons.append("ip-" + "+".join(sorted(sources)))
        elif any(
            ip_verdicts[address].intel_partial for address in ips
        ):
            # a non-malicious verdict reached over a partial vendor
            # quorum is unverifiable, not clean
            reasons.append("unverifiable:intel")
        return (
            ClassifiedUR(
                record=entry.record,
                category=(
                    URCategory.MALICIOUS
                    if malicious
                    else URCategory.UNKNOWN
                ),
                reasons=tuple(reasons),
                corresponding_ips=tuple(ips),
                txt_category=entry.txt_category,
            ),
            False,
        )

    def analyze(
        self, suspicious: Sequence[ClassifiedUR]
    ) -> MaliciousAnalysisResult:
        """Refine suspicious URs into malicious / unknown."""
        a_index = (
            self.build_a_record_index(suspicious)
            if self.use_cohost_join
            else {}
        )
        ip_verdicts: Dict[str, IpVerdict] = {}
        refined: List[ClassifiedUR] = []
        txt_without_ip = 0
        for entry in suspicious:
            result, counted = self.refine_entry(entry, a_index, ip_verdicts)
            refined.append(result)
            if counted:
                txt_without_ip += 1
        return MaliciousAnalysisResult(
            classified=refined,
            ip_verdicts=ip_verdicts,
            txt_without_ip=txt_without_ip,
        )
