"""Multi-vendor threat-intelligence aggregation (VirusTotal-style).

URHunter treats "threat intelligence explicitly labels an IP address as
malicious" as one of its two malicious-UR conditions; this module answers
that question across a vendor fleet and exposes the per-IP vendor counts
and merged tags that drive Figures 3(b) and 3(d).

Degraded-mode aggregation: every vendor call runs through a
:class:`~repro.pipeline.resilience.SourceGuard` (retry with backoff,
per-vendor circuit breaker, rate-limit cool-down).  A vendor that stays
dead past its retry budget is *excluded from the quorum* for that
address and recorded in :attr:`IntelReport.failed_vendors`; the merged
verdict is computed over the survivors instead of aborting the
measurement.  Nothing is cached: every :meth:`ThreatIntelAggregator.report`
asks the fleet, so a report missing a vendor that failed once is never
served again (stage 3 already asks once per address).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence

from ..pipeline.resilience import SourceGuard, SourceHealth
from .vendor import SecurityVendor


@dataclass(frozen=True)
class IntelReport:
    """The aggregated view of one IP address."""

    address: str
    flagging_vendors: FrozenSet[str]
    tags: FrozenSet[str]
    #: vendors that could not be queried for this address (degraded run)
    failed_vendors: FrozenSet[str] = frozenset()

    @property
    def is_malicious(self) -> bool:
        return bool(self.flagging_vendors)

    @property
    def vendor_count(self) -> int:
        return len(self.flagging_vendors)

    @property
    def is_partial(self) -> bool:
        """Did any vendor drop out of the quorum for this address?"""
        return bool(self.failed_vendors)


class ThreatIntelAggregator:
    """Aggregates verdicts across a fleet of :class:`SecurityVendor`,
    every vendor call through one :class:`SourceGuard` of its own."""

    def __init__(self, vendors: Sequence[SecurityVendor]):
        if not vendors:
            raise ValueError("an aggregator needs at least one vendor")
        self.vendors = list(vendors)
        #: the vendor calls' ledger; stage 3 starts a new one each run
        self.guard = SourceGuard()

    # -- the merged verdict ------------------------------------------------

    def report(self, address: str) -> IntelReport:
        """Merged verdict for ``address``, one guarded call per vendor."""
        flagging: List[str] = []
        tags: set = set()
        failed: List[str] = []
        for vendor in self.vendors:
            source = f"vendor:{vendor.name}"

            def probe(vendor=vendor):  # one guarded round-trip per vendor
                malicious = vendor.is_malicious(address)
                vendor_tags = (
                    vendor.tags(address) if malicious else frozenset()
                )
                return malicious, vendor_tags

            ok, result = self.guard.try_call(source, probe)
            if not ok:
                failed.append(vendor.name)
                continue
            malicious, vendor_tags = result
            if malicious:
                flagging.append(vendor.name)
                tags |= set(vendor_tags)
        return IntelReport(
            address=address,
            flagging_vendors=frozenset(flagging),
            tags=frozenset(tags),
            failed_vendors=frozenset(failed),
        )

    def is_flagged(self, address: str) -> bool:
        return self.report(address).is_malicious

    # -- degradation observability -----------------------------------------

    def source_health(self) -> Dict[str, SourceHealth]:
        """Per-vendor health ledgers (see ``DegradedSources``)."""
        return self.guard.snapshot()
