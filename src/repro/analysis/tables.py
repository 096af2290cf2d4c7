"""Table builders: Table 1 (suspicious-UR overview) and Table 2 (hosting
strategies).

Table 1 reads a :class:`~repro.core.report.MeasurementReport`.  Table 2 is
an *active experiment*: it probes live providers with test accounts the
way Appendix C describes (two accounts, ~30 domains, eTLD and unregistered
candidates, duplicate hosting attempts, retrieval attempts) and reports
what the provider allowed.  No cell reads the provider's policy back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence

from ..core.report import MeasurementReport, TypeStats
from ..hosting.policy import NsAllocation, PolicyProbeResult
from ..hosting.provider import HostedZone, HostingError, HostingProvider
from ..hosting.registry import DnsRoot
from .formatting import format_count_with_pct, render_table

#: probe domains per Appendix C: top-100-style SLDs, eTLDs, unregistered
PROBE_SLDS = (
    "probe-popular-a.com",
    "probe-popular-b.net",
    "probe-popular-c.org",
    "probe-popular-d.io",
    "probe-popular-e.co",
)
PROBE_ETLDS = ("gov.cn", "edu.cn", "gov.kp", "edu.kp", "co.uk")
PROBE_UNREGISTERED = (
    "probe-unregistered-a.com",
    "probe-unregistered-b.net",
    "probe-unregistered-c.org",
)
PROBE_SUBDOMAINS = ("api.probe-popular-a.com", "cdn.probe-popular-b.net")
#: three zones per account whose assigned nameserver sets reveal the
#: allocation strategy
PROBE_ALLOCATION = (
    ("probe-alloc-a1.com", "probe-alloc-a2.net", "probe-alloc-a3.org"),
    ("probe-alloc-b1.com", "probe-alloc-b2.net", "probe-alloc-b3.org"),
)
#: registered to the measurer for the retrieval attempt
PROBE_RETRIEVAL = "probe-retrieval.com"


@dataclass
class Table1:
    """The rendered Table 1 plus its raw rows."""

    rows: Dict[str, TypeStats]
    text: str


def build_table1(report: MeasurementReport) -> Table1:
    """Table 1: overview of suspicious URs by record type."""
    stats = report.suspicious_stats()
    headers = (
        "Category",
        "# Domain (mal)",
        "# Nameserver (mal)",
        "# Provider (mal)",
        "# UR (mal)",
        "# IP (mal)",
    )
    rows = []
    for label in ("A", "TXT", "Total"):
        entry = stats[label]
        rows.append(
            (
                label,
                f"{entry.domains_total:,} / "
                + format_count_with_pct(
                    entry.domains_malicious, entry.domains_malicious_pct
                ),
                f"{entry.nameservers_total:,} / "
                + format_count_with_pct(
                    entry.nameservers_malicious,
                    entry.nameservers_malicious_pct,
                ),
                f"{entry.providers_total:,} / "
                + format_count_with_pct(
                    entry.providers_malicious,
                    entry.providers_malicious_pct,
                ),
                f"{entry.urs_total:,} / "
                + format_count_with_pct(
                    entry.urs_malicious, entry.urs_malicious_pct
                ),
                f"{entry.ips_total:,} / "
                + format_count_with_pct(
                    entry.ips_malicious, entry.ips_malicious_pct
                ),
            )
        )
    text = render_table(
        headers,
        rows,
        title="Table 1: Overview of suspicious undelegated records",
    )
    return Table1(rows=stats, text=text)


# ---------------------------------------------------------------------------
# Table 2 — active policy probing
# ---------------------------------------------------------------------------


def infer_allocation(
    nameserver_sets: Sequence[Sequence[FrozenSet[str]]],
) -> NsAllocation:
    """The allocation strategy behind each account's zones' nameserver
    sets: one set everywhere is global-fixed, one set per account is
    account-fixed, anything else is random."""
    if len({ns for sets in nameserver_sets for ns in sets}) == 1:
        return NsAllocation.GLOBAL_FIXED
    if all(len(set(sets)) == 1 for sets in nameserver_sets):
        return NsAllocation.ACCOUNT_FIXED
    return NsAllocation.RANDOM


def probe_provider(
    provider: HostingProvider, root: DnsRoot
) -> PolicyProbeResult:
    """Actively probe one provider with two throwaway accounts.

    Mirrors the Appendix C process: try hosting popular SLDs, eTLDs,
    subdomains and unregistered domains; try duplicate hosting from both
    accounts; compare the nameservers each account's zones receive; try
    owner retrieval of a domain ``root`` delegates to the provider.
    Every hosted zone and the probe delegation are removed afterwards
    (the paper's ethics appendix).
    """
    first = provider.create_account(paid=True)
    second = provider.create_account(paid=True)
    created: List[HostedZone] = []

    def host(account, domain: str, is_registered: bool = True):
        try:
            hosted = provider.host_zone(
                account, domain, is_registered=is_registered
            )
        except HostingError:
            return None
        created.append(hosted)
        # Harmless probe records, as in the paper's ethics protocol.
        provider.add_record(hosted, domain, "A", "127.0.0.1")
        return hosted

    def attempt(account, domain: str, is_registered: bool = True) -> bool:
        return host(account, domain, is_registered) is not None

    allows_sld = any(
        attempt(first, domain) for domain in PROBE_SLDS
    )
    allows_etld = any(attempt(first, domain) for domain in PROBE_ETLDS)
    allows_subdomain = any(
        attempt(first, domain) for domain in PROBE_SUBDOMAINS
    )
    allows_unregistered = any(
        attempt(first, domain, is_registered=False)
        for domain in PROBE_UNREGISTERED
    )

    # Duplicate hosting: same account twice, then a second account.
    duplicate_single = attempt(first, PROBE_SLDS[0])
    duplicate_cross = attempt(second, PROBE_SLDS[0])

    # Hosting without verification: did anything get served although the
    # probe domains are not delegated to the provider?
    hosts_without_verification = any(
        any(
            entry.server.hosts_zone(hosted.domain)
            for entry in hosted.nameservers
        )
        for hosted in created
    )

    nameserver_sets = [
        [
            frozenset(entry.address for entry in hosted.nameservers)
            for hosted in (host(account, domain) for domain in domains)
            if hosted is not None
        ]
        for account, domains in zip((first, second), PROBE_ALLOCATION)
    ]
    ns_allocation = infer_allocation(nameserver_sets)

    # Retrieval: the measurer delegates a domain to the first account's
    # assigned servers, then the second account claims it.
    no_retrieval = True
    squatted = host(first, PROBE_RETRIEVAL)
    if squatted is not None:
        if not root.is_registered(PROBE_RETRIEVAL):
            root.register(PROBE_RETRIEVAL, registrant="measurer")
        root.delegate(
            PROBE_RETRIEVAL,
            [(entry.hostname, entry.address) for entry in squatted.nameservers],
        )
        try:
            no_retrieval = not provider.retrieve_domain(
                second, PROBE_RETRIEVAL
            )
        except HostingError:
            pass
        root.undelegate(PROBE_RETRIEVAL)

    notes = set()
    if provider.policy.reserved:
        notes.add("some tested domains were prohibited from hosting")
    if provider.policy.subdomains_require_payment:
        notes.add("subdomain hosting requires payment")
    if provider.policy.paid_sync_all_nameservers:
        notes.add("paid accounts can sync zones to the whole pool")

    # Ethics: remove everything we hosted.
    for hosted in created:
        provider.delete_zone(hosted)

    return PolicyProbeResult(
        provider=provider.name,
        ns_allocation=ns_allocation,
        hosts_without_verification=hosts_without_verification,
        allows_unregistered=allows_unregistered,
        allows_subdomain=allows_subdomain,
        allows_sld=allows_sld,
        allows_etld=allows_etld,
        duplicate_single_user=duplicate_single,
        duplicate_cross_user=duplicate_cross,
        no_retrieval=no_retrieval,
        notes=frozenset(notes),
    )


@dataclass
class Table2:
    """The rendered Table 2 plus its raw probe results."""

    results: List[PolicyProbeResult]
    text: str


def build_table2(
    providers: Sequence[HostingProvider], root: DnsRoot
) -> Table2:
    """Probe every provider and render the hosting-strategy matrix.

    ``root`` is the registry the providers' ``delegation_lookup`` reads.
    """
    results = [probe_provider(provider, root) for provider in providers]
    results.sort(key=lambda result: result.provider)

    def mark(value: bool) -> str:
        return "yes" if value else "no"

    headers = (
        "Provider",
        "NS allocation",
        "No verification",
        "Unregistered",
        "Subdomain",
        "SLD",
        "eTLD",
        "Dup single",
        "Dup cross",
        "No retrieval",
    )
    rows = [
        (
            result.provider,
            result.ns_allocation.value,
            mark(result.hosts_without_verification),
            mark(result.allows_unregistered),
            mark(result.allows_subdomain),
            mark(result.allows_sld),
            mark(result.allows_etld),
            mark(result.duplicate_single_user),
            mark(result.duplicate_cross_user),
            mark(result.no_retrieval),
        )
        for result in results
    ]
    text = render_table(
        headers,
        rows,
        title="Table 2: Hosting strategy for common DNS hosting providers",
    )
    return Table2(results=results, text=text)
