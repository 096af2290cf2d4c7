"""Measurement report: aggregated views over classified URs.

This is the single object the analysis layer (tables/figures) reads.  It
holds every classified UR (correct, protective, malicious, unknown), the
per-IP verdicts, and collection metadata, and computes the groupings the
paper reports: per-record-type suspicious stats (Table 1), per-provider
category mixes (Figure 2), label provenance (Figure 3a), vendor counts
(3b), alert categories (3c), tags (3d), and the TXT email-related share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from dataclasses import field

from ..dns.name import Name
from ..dns.rdata import RRType
from ..engine.metrics import ScanMetrics
from ..pipeline.resilience import SourceHealth
from .records import (
    ClassifiedUR,
    IpVerdict,
    URCategory,
    categories_of,
    is_unverifiable,
    reasons_of,
    select,
)
from .suspicion import Stage2Metrics
from .txt import TxtCategory


@dataclass
class DegradedSources:
    """Provenance of a degraded run: what the measurement *couldn't* check.

    A pipeline that silently drops a dead vendor or a pDNS outage
    produces numbers indistinguishable from a clean run's; this section
    makes the difference explicit so downstream consumers can weigh the
    verdicts accordingly.
    """

    #: per-source health ledgers ("vendor:VirusTotal", "pdns", "ipinfo")
    sources: Dict[str, SourceHealth] = field(default_factory=dict)
    #: Appendix-B condition -> records it could not be evaluated for
    skipped_conditions: Dict[str, int] = field(default_factory=dict)
    #: suspicious URs whose verdict is degraded rather than definitive
    unverifiable_urs: int = 0
    #: IPs whose intel verdict covers only part of the vendor fleet
    partial_ip_verdicts: int = 0
    #: free-form pipeline notes (e.g. "shed-queries:N")
    notes: Tuple[str, ...] = ()

    @property
    def dead_sources(self) -> List[str]:
        """Sources whose circuit was open when the run finished."""
        return sorted(
            name for name, ledger in self.sources.items() if ledger.dead
        )

    @property
    def degraded_source_names(self) -> List[str]:
        return sorted(
            name
            for name, ledger in self.sources.items()
            if ledger.degraded
        )

    @property
    def is_degraded(self) -> bool:
        return bool(
            self.degraded_source_names
            or self.skipped_conditions
            or self.unverifiable_urs
            or self.partial_ip_verdicts
            or self.notes
        )

    def summary(self, indent: str = "") -> str:
        """Multi-line human-readable degradation accounting."""
        lines = [f"{indent}degraded sources:"]
        for name in self.degraded_source_names:
            ledger = self.sources[name]
            lines.append(f"{indent}  [{name}] {ledger.describe()}")
        if self.dead_sources:
            lines.append(
                f"{indent}  dead (circuit open): "
                + ", ".join(self.dead_sources)
            )
        if self.skipped_conditions:
            skipped = ", ".join(
                f"{condition}={count}"
                for condition, count in sorted(
                    self.skipped_conditions.items()
                )
            )
            lines.append(f"{indent}  conditions skipped: {skipped}")
        if self.partial_ip_verdicts:
            lines.append(
                f"{indent}  partial IP verdicts: {self.partial_ip_verdicts}"
            )
        if self.unverifiable_urs:
            lines.append(
                f"{indent}  unverifiable URs:    {self.unverifiable_urs}"
            )
        for note in self.notes:
            lines.append(f"{indent}  note: {note}")
        return "\n".join(lines)


_SUSPICIOUS = tuple(
    category for category in URCategory if category.is_suspicious
)

#: the paper's flagging-vendor-count buckets (Figure 3(b))
VENDOR_COUNT_BUCKETS = ((1, 2), (3, 4), (5, 6), (7, 11))


@dataclass(frozen=True)
class TypeStats:
    """One row of Table 1 (A, TXT, or Total)."""

    label: str
    domains_total: int
    domains_malicious: int
    nameservers_total: int
    nameservers_malicious: int
    providers_total: int
    providers_malicious: int
    urs_total: int
    urs_malicious: int
    ips_total: int
    ips_malicious: int

    @staticmethod
    def _pct(part: int, whole: int) -> float:
        return 100.0 * part / whole if whole else 0.0

    @property
    def urs_malicious_pct(self) -> float:
        return self._pct(self.urs_malicious, self.urs_total)

    @property
    def domains_malicious_pct(self) -> float:
        return self._pct(self.domains_malicious, self.domains_total)

    @property
    def nameservers_malicious_pct(self) -> float:
        return self._pct(self.nameservers_malicious, self.nameservers_total)

    @property
    def providers_malicious_pct(self) -> float:
        return self._pct(self.providers_malicious, self.providers_total)

    @property
    def ips_malicious_pct(self) -> float:
        return self._pct(self.ips_malicious, self.ips_total)


@dataclass
class MeasurementReport:
    """End-to-end URHunter output.

    ``classified`` is any sequence of entries; a run's is a
    :class:`~repro.core.records.ReportEntries` view, which builds each
    entry as it is read.
    """

    classified: Sequence[ClassifiedUR]
    ip_verdicts: Dict[str, IpVerdict]
    queries_sent: int = 0
    responses_seen: int = 0
    timeouts: int = 0
    txt_without_ip: int = 0
    false_negative_rate: Optional[float] = None
    #: engine observability for the whole stage-1 scan (all collections)
    scan_metrics: Optional[ScanMetrics] = None
    #: stage-2 exclusion observability (dedup, verdict-cache hit rates)
    stage2_metrics: Optional[Stage2Metrics] = None
    #: resilience-layer counters (hedges, sheds, AIMD); None unless a
    #: mechanism actually fired, so healthy runs render unchanged
    resilience_metrics: Optional[object] = None
    #: set when any data source degraded during the run (None = clean)
    degraded: Optional[DegradedSources] = None

    @property
    def is_degraded(self) -> bool:
        return self.degraded is not None and self.degraded.is_degraded

    @property
    def unverifiable(self) -> List[ClassifiedUR]:
        """URs whose verdict rests on an incomplete evidence base."""
        entries = self.classified
        return [
            entries[index]
            for index, reasons in enumerate(reasons_of(entries))
            if is_unverifiable(reasons)
        ]

    # -- basic partitions ---------------------------------------------------
    #
    # read off the verdict columns where ``classified`` is a view: only
    # the selected entries are built

    def by_category(self, category: URCategory) -> List[ClassifiedUR]:
        return select(self.classified, (category,))

    @property
    def suspicious(self) -> List[ClassifiedUR]:
        return select(self.classified, _SUSPICIOUS)

    @property
    def malicious(self) -> List[ClassifiedUR]:
        return self.by_category(URCategory.MALICIOUS)

    def category_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {
            category.value: 0 for category in URCategory
        }
        for category in categories_of(self.classified):
            counts[category.value] += 1
        return counts

    # -- Table 1 --------------------------------------------------------------

    def _stats_over(
        self, label: str, entries: Sequence[ClassifiedUR]
    ) -> TypeStats:
        domains: Set[Name] = set()
        domains_mal: Set[Name] = set()
        servers: Set[str] = set()
        servers_mal: Set[str] = set()
        providers: Set[str] = set()
        providers_mal: Set[str] = set()
        ips: Set[str] = set()
        ips_mal: Set[str] = set()
        urs_mal = 0
        for entry in entries:
            record = entry.record
            domains.add(record.domain)
            servers.add(record.nameserver_ip)
            providers.add(record.provider)
            ips.update(entry.corresponding_ips)
            if entry.is_malicious:
                urs_mal += 1
                domains_mal.add(record.domain)
                servers_mal.add(record.nameserver_ip)
                providers_mal.add(record.provider)
                for address in entry.corresponding_ips:
                    verdict = self.ip_verdicts.get(address)
                    if verdict is not None and verdict.is_malicious:
                        ips_mal.add(address)
        return TypeStats(
            label=label,
            domains_total=len(domains),
            domains_malicious=len(domains_mal),
            nameservers_total=len(servers),
            nameservers_malicious=len(servers_mal),
            providers_total=len(providers),
            providers_malicious=len(providers_mal),
            urs_total=len(entries),
            urs_malicious=urs_mal,
            ips_total=len(ips),
            ips_malicious=len(ips_mal),
        )

    def suspicious_stats(self) -> Dict[str, TypeStats]:
        """Table 1's three rows, computed over the suspicious set."""
        suspicious = self.suspicious
        a_entries = [
            entry for entry in suspicious if entry.record.rrtype == RRType.A
        ]
        txt_entries = [
            entry
            for entry in suspicious
            if entry.record.rrtype == RRType.TXT
        ]
        return {
            "A": self._stats_over("A", a_entries),
            "TXT": self._stats_over("TXT", txt_entries),
            "Total": self._stats_over("Total", suspicious),
        }

    # -- Figure 2 --------------------------------------------------------------

    def provider_category_mix(
        self, top: Optional[int] = None
    ) -> List[Tuple[str, Dict[str, int]]]:
        """Per-provider category counts, sorted by total URs descending."""
        mix: Dict[str, Dict[str, int]] = {}
        for entry in self.classified:
            bucket = mix.setdefault(
                entry.record.provider,
                {category.value: 0 for category in URCategory},
            )
            bucket[entry.category.value] += 1
        ordered = sorted(
            mix.items(),
            key=lambda item: (-sum(item[1].values()), item[0]),
        )
        return ordered[:top] if top is not None else ordered

    # -- Figure 3(a) -------------------------------------------------------------

    def label_provenance(self) -> Dict[str, int]:
        """Counts of malicious IPs by evidence source (intel/ids/both)."""
        counts = {"intel": 0, "ids": 0, "both": 0}
        for verdict in self.ip_verdicts.values():
            if not verdict.is_malicious:
                continue
            counts[verdict.label_source] += 1
        return counts

    # -- Figure 3(b) -------------------------------------------------------------

    def vendor_count_histogram(self) -> Dict[str, int]:
        """Histogram of per-IP flagging-vendor counts, paper's buckets."""
        histogram = {f"{low}-{high}": 0 for low, high in VENDOR_COUNT_BUCKETS}
        for verdict in self.ip_verdicts.values():
            if not verdict.intel_flagged:
                continue
            for low, high in VENDOR_COUNT_BUCKETS:
                if low <= verdict.vendor_count <= high:
                    histogram[f"{low}-{high}"] += 1
                    break
        return histogram

    # -- Figure 3(c) -------------------------------------------------------------

    def alert_category_shares(self) -> Dict[str, float]:
        """Share of IDS alerts by category over malicious-IP traffic."""
        counts: Dict[str, int] = {}
        total = 0
        for verdict in self.ip_verdicts.values():
            if not verdict.is_malicious:
                continue
            for category in verdict.alert_categories:
                counts[category] = counts.get(category, 0) + 1
                total += 1
        if total == 0:
            return {}
        return {
            category: 100.0 * count / total
            for category, count in sorted(
                counts.items(), key=lambda item: -item[1]
            )
        }

    # -- Figure 3(d) -------------------------------------------------------------

    def tag_shares(self) -> Dict[str, float]:
        """Share of vendor-flagged IPs carrying each intel tag.

        Multi-label, so shares sum past 100% (Figure 3(d)).  The
        denominator is IPs with vendor verdicts — IDS-only IPs carry no
        tags and are out of scope for this figure.
        """
        malicious = [
            verdict
            for verdict in self.ip_verdicts.values()
            if verdict.intel_flagged
        ]
        if not malicious:
            return {}
        counts: Dict[str, int] = {}
        for verdict in malicious:
            # sorted: frozenset iteration order is hash-seed dependent,
            # and stable tie-breaking must survive process boundaries
            # (checkpoint resume compares reports byte-for-byte)
            for tag in sorted(verdict.tags):
                counts[tag] = counts.get(tag, 0) + 1
        return {
            tag: 100.0 * count / len(malicious)
            for tag, count in sorted(counts.items(), key=lambda item: -item[1])
        }

    # -- §5.2 TXT statistic -----------------------------------------------------

    def email_related_txt_share(self) -> float:
        """% of malicious TXT URs that are SPF/DMARC/DKIM (paper: 90.95%)."""
        malicious_txt = [
            entry
            for entry in self.malicious
            if entry.record.rrtype == RRType.TXT
        ]
        if not malicious_txt:
            return 0.0
        email = [
            entry
            for entry in malicious_txt
            if entry.txt_category in TxtCategory.EMAIL_RELATED
        ]
        return 100.0 * len(email) / len(malicious_txt)

    # -- presentation -------------------------------------------------------------

    def summary(self) -> str:
        """A multi-line human-readable overview (§5.1-style)."""
        counts = self.category_counts()
        total = len(self.classified)
        suspicious = len(self.suspicious)
        malicious = counts[URCategory.MALICIOUS.value]
        lines = [
            f"unique URs classified:   {total}",
            f"  correct:               {counts['correct']}",
            f"  protective:            {counts['protective']}",
            f"  unknown:               {counts['unknown']}",
            f"  malicious:             {malicious}",
            f"suspicious (unk+mal):    {suspicious}",
        ]
        if suspicious:
            lines.append(
                f"malicious share:         "
                f"{100.0 * malicious / suspicious:.2f}% of suspicious"
            )
        lines.append(
            f"queries sent: {self.queries_sent}, responses: "
            f"{self.responses_seen}, timeouts: {self.timeouts}"
        )
        if self.false_negative_rate is not None:
            lines.append(
                f"validation FN rate:      {self.false_negative_rate:.4f}"
            )
        for heading, block in (
            ("scan engine metrics:", self.scan_metrics),
            ("stage-2 exclusion metrics:", self.stage2_metrics),
            ("resilience metrics:", self.resilience_metrics),
        ):
            if block is not None:
                lines.append(heading)
                lines.append(block.summary(indent="  "))
        if self.is_degraded:
            lines.append(self.degraded.summary())
        return "\n".join(lines)
