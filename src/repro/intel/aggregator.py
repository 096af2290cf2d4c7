"""Multi-vendor threat-intelligence aggregation (VirusTotal-style).

URHunter treats "threat intelligence explicitly labels an IP address as
malicious" as one of its two malicious-UR conditions; this module answers
that question across a vendor fleet and exposes the per-IP vendor counts
and merged tags that drive Figures 3(b) and 3(d).

Two production behaviours live here:

* **degraded-mode aggregation** — every vendor call runs through a
  :class:`~repro.pipeline.resilience.SourceGuard` (retry with backoff,
  per-vendor circuit breaker, rate-limit cool-down).  A vendor that
  stays dead past its retry budget is *excluded from the quorum* for
  that address and recorded in :attr:`IntelReport.failed_vendors`; the
  merged verdict is computed over the survivors instead of aborting the
  measurement.
* **a per-address report cache** — ``is_flagged``/``vendor_count``/
  ``tags`` used to re-query every vendor independently (3× traffic
  against rate-limited feeds); they now all reuse one cached
  :meth:`report` per address.  The LRU memo is keyed by address and
  revalidated against the fleet's update counters, so a vendor pushing
  a new blacklist entry invalidates stale verdicts automatically.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..pipeline.resilience import SourceGuard, SourceHealth
from .vendor import SecurityVendor

#: reports the aggregator's LRU memo keeps
CACHE_ENTRIES = 4096


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
        self.guard = SourceGuard()
        self._cache: "OrderedDict[str, Tuple[int, IntelReport]]" = (
            OrderedDict()
        )
        self.cache_hits = 0
        self.cache_misses = 0

    # -- cache plumbing ----------------------------------------------------

    def _fleet_version(self) -> int:
        """A cheap fingerprint of the fleet's update state."""
        return sum(getattr(vendor, "version", 0) for vendor in self.vendors)

    # -- the merged verdict ------------------------------------------------

    def report(self, address: str) -> IntelReport:
        """Merged verdict for ``address`` (memoized per fleet version)."""
        version = self._fleet_version()
        cached = self._cache.get(address)
        if cached is not None and cached[0] == version:
            self._cache.move_to_end(address)
            self.cache_hits += 1
            return cached[1]
        self.cache_misses += 1
        report = self._query_vendors(address)
        self._cache[address] = (version, report)
        self._cache.move_to_end(address)
        while len(self._cache) > CACHE_ENTRIES:
            self._cache.popitem(last=False)
        return report

    def _query_vendors(self, address: str) -> IntelReport:
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

    def vendor_count(self, address: str) -> int:
        return self.report(address).vendor_count

    def tags(self, address: str) -> FrozenSet[str]:
        return self.report(address).tags

    # -- degradation observability -----------------------------------------

    def source_health(self) -> Dict[str, SourceHealth]:
        """Per-vendor health ledgers (see ``DegradedSources``)."""
        return self.guard.snapshot()
