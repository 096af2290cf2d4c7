"""Passive DNS store: historical resolutions and delegations.

The paper collaborated with "one of the largest DNS providers in the
world" for six years of passive DNS, used in two places:

* Appendix B condition 5 — a UR matching any historical record of its
  domain is a *correct record* (a past delegation, e.g. the domain moved
  providers);
* §4.1(2) — collecting historical delegated records.

This store is time-windowed so the six-year horizon is explicit.

Performance: stage 2 queries the store once per candidate UR — at paper
scale (~8,941 nameservers × 2K domains) a full scan of every observation
per query dominates exclusion wall-clock time.  The store therefore
maintains two incremental indexes — ``domain → observations`` and
``(domain, rrtype) → observations`` — plus a generation-stamped cache of
windowed query results (lazily invalidated on ingest).  Index buckets
preserve global insertion order, so every query returns *exactly* what
the naive full scan would, in the same order; ``indexed=False`` keeps
the naive scan alive for benchmarking and equivalence testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from ..dns.name import Name, name
from ..dns.rdata import RRType

SIX_YEARS = 6 * 365 * 24 * 3600.0


@dataclass(frozen=True, slots=True)
class PdnsObservation:
    """One historical (domain, rrtype, rdata) sighting."""

    domain: Name
    rrtype: int
    rdata_text: str
    first_seen: float
    last_seen: float


#: key of one observation inside the store and its index buckets
_ObsKey = Tuple[Name, int, str]


class PassiveDnsStore:
    """An append-only passive-DNS database with windowed queries."""

    #: repeat queries always return the same answer — memoization-safe
    #: (fault-injecting wrappers advertise ``False`` instead)
    deterministic = True

    def __init__(self, horizon: float = SIX_YEARS, indexed: bool = True):
        self.horizon = horizon
        self._observations: Dict[_ObsKey, PdnsObservation] = {}
        self._indexed = indexed
        # incremental indexes: buckets keep global insertion order, so an
        # indexed query reproduces the naive scan's order exactly
        self._by_domain: Dict[Name, Dict[_ObsKey, PdnsObservation]] = {}
        self._by_domain_type: Dict[
            Tuple[Name, int], Dict[_ObsKey, PdnsObservation]
        ] = {}
        self._domains: Set[Name] = set()
        # lazy invalidation: ingest bumps the generation, the next query
        # notices the mismatch and drops the stale result cache
        self._generation = 0
        self._cache_generation = 0
        self._history_cache: Dict[
            Tuple[Name, Optional[int], float], Tuple[PdnsObservation, ...]
        ] = {}
        self._rdata_cache: Dict[Tuple[Name, int, float], FrozenSet[str]] = {}
        #: result-cache accounting (stage-2 observability)
        self.cache_hits = 0
        self.cache_misses = 0

    def observe(
        self,
        domain: Union[str, Name],
        rrtype: int,
        rdata_text: str,
        timestamp: float,
    ) -> None:
        """Record a sighting, widening first/last-seen as needed."""
        domain = name(domain)
        key = (domain, rrtype, rdata_text)
        existing = self._observations.get(key)
        if existing is None:
            observation = PdnsObservation(
                domain=domain,
                rrtype=rrtype,
                rdata_text=rdata_text,
                first_seen=timestamp,
                last_seen=timestamp,
            )
        else:
            observation = PdnsObservation(
                domain=domain,
                rrtype=rrtype,
                rdata_text=rdata_text,
                first_seen=min(existing.first_seen, timestamp),
                last_seen=max(existing.last_seen, timestamp),
            )
        self._observations[key] = observation
        if not self._indexed:
            return
        # dict assignment preserves a key's position, so updating an
        # existing bucket entry keeps insertion order == scan order
        self._by_domain.setdefault(domain, {})[key] = observation
        self._by_domain_type.setdefault((domain, rrtype), {})[
            key
        ] = observation
        self._domains.add(domain)
        self._generation += 1

    def observe_delegation(
        self,
        domain: Union[str, Name],
        ns_targets: List[Union[str, Name]],
        timestamp: float,
    ) -> None:
        """Record the NS set a domain was delegated to at ``timestamp``."""
        for target in ns_targets:
            self.observe(
                domain, RRType.NS, name(target).to_text(True), timestamp
            )

    # -- queries -------------------------------------------------------------

    def _in_window(
        self, observation: PdnsObservation, now: float
    ) -> bool:
        return (
            observation.last_seen >= now - self.horizon
            and observation.first_seen <= now
        )

    def _history_scan(
        self, domain: Name, now: float, rrtype: Optional[int]
    ) -> List[PdnsObservation]:
        """The reference O(total observations) implementation."""
        return [
            observation
            for observation in self._observations.values()
            if observation.domain == domain
            and (rrtype is None or observation.rrtype == rrtype)
            and self._in_window(observation, now)
        ]

    def _fresh_cache(self) -> None:
        """Lazily drop memoized query results after an ingest."""
        if self._cache_generation != self._generation:
            self._history_cache.clear()
            self._rdata_cache.clear()
            self._cache_generation = self._generation

    def history(
        self,
        domain: Union[str, Name],
        now: float,
        rrtype: Optional[int] = None,
    ) -> List[PdnsObservation]:
        """Observations for ``domain`` within the horizon ending at ``now``."""
        domain = name(domain)
        if not self._indexed:
            return self._history_scan(domain, now, rrtype)
        self._fresh_cache()
        cache_key = (domain, rrtype, now)
        cached = self._history_cache.get(cache_key)
        if cached is not None:
            self.cache_hits += 1
            return list(cached)
        self.cache_misses += 1
        if rrtype is None:
            bucket = self._by_domain.get(domain)
        else:
            bucket = self._by_domain_type.get((domain, rrtype))
        result: Tuple[PdnsObservation, ...] = tuple(
            observation
            for observation in (bucket.values() if bucket else ())
            if self._in_window(observation, now)
        )
        self._history_cache[cache_key] = result
        return list(result)

    def historical_rdata(
        self, domain: Union[str, Name], rrtype: int, now: float
    ) -> Set[str]:
        """The set of historical rdata texts for (domain, rrtype)."""
        domain = name(domain)
        if not self._indexed:
            return {
                observation.rdata_text
                for observation in self._history_scan(domain, now, rrtype)
            }
        self._fresh_cache()
        cache_key = (domain, rrtype, now)
        cached = self._rdata_cache.get(cache_key)
        if cached is None:
            cached = frozenset(
                observation.rdata_text
                for observation in self.history(domain, now, rrtype)
            )
            self._rdata_cache[cache_key] = cached
        return set(cached)

    def record_in_history(
        self,
        domain: Union[str, Name],
        rrtype: int,
        rdata_text: str,
        now: float,
    ) -> bool:
        """Appendix B condition 5: was this exact record ever served?"""
        return rdata_text in self.historical_rdata(domain, rrtype, now)

    def historical_nameservers(
        self, domain: Union[str, Name], now: float
    ) -> Set[Name]:
        """Every nameserver the domain was ever delegated to (in window)."""
        return {
            name(observation.rdata_text)
            for observation in self.history(domain, now, RRType.NS)
        }

    def domains(self) -> Set[Name]:
        if self._indexed:
            return set(self._domains)
        return {
            observation.domain
            for observation in self._observations.values()
        }

    def __len__(self) -> int:
        return len(self._observations)
