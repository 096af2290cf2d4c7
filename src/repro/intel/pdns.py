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
keeps one index, ``domain → observations`` in first-sighting order (a
paper-scale world's largest bucket holds 17), and filters a domain's
bucket by rrtype and window per query.  There is no result cache:
stage 2 asks once per distinct (domain, rrtype, rdata) key, and no
run's traffic repeats a (domain, rrtype, now) question.  Each
observation is held once; the O(observations) reference scan lives in
the equivalence tests, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

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


class PassiveDnsStore:
    """An append-only passive-DNS database with windowed queries."""

    #: repeat queries always return the same answer — safe to dedup
    #: (fault-injecting wrappers advertise ``False`` instead)
    deterministic = True

    def __init__(self) -> None:
        #: the one index: each domain's observations in first-sighting
        #: order, one per distinct (rrtype, rdata_text)
        self._by_domain: Dict[Name, Tuple[PdnsObservation, ...]] = {}
        self._count = 0

    def observe(
        self,
        domain: Union[str, Name],
        rrtype: int,
        rdata_text: str,
        timestamp: float,
    ) -> None:
        """Record a sighting, widening first/last-seen as needed.

        A repeat sighting of (domain, rrtype, rdata_text) rewrites its
        observation in place — widened window, this call's spelling of
        ``domain``, same position — so queries keep first-sighting
        order.
        """
        domain = name(domain)
        bucket = self._by_domain.get(domain, ())
        position = next(
            (
                position
                for position, seen in enumerate(bucket)
                if seen.rrtype == rrtype and seen.rdata_text == rdata_text
            ),
            len(bucket),
        )
        first_seen = last_seen = timestamp
        if position < len(bucket):
            first_seen = min(bucket[position].first_seen, timestamp)
            last_seen = max(bucket[position].last_seen, timestamp)
        else:
            self._count += 1
        observation = PdnsObservation(
            domain=domain,
            rrtype=rrtype,
            rdata_text=rdata_text,
            first_seen=first_seen,
            last_seen=last_seen,
        )
        self._by_domain[domain] = (
            bucket[:position] + (observation,) + bucket[position + 1 :]
        )

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
            observation.last_seen >= now - SIX_YEARS
            and observation.first_seen <= now
        )

    def history(
        self,
        domain: Union[str, Name],
        now: float,
        rrtype: Optional[int] = None,
    ) -> List[PdnsObservation]:
        """Observations for ``domain`` within the horizon ending at ``now``."""
        return [
            observation
            for observation in self._by_domain.get(name(domain), ())
            if (rrtype is None or observation.rrtype == rrtype)
            and self._in_window(observation, now)
        ]

    def historical_rdata(
        self, domain: Union[str, Name], rrtype: int, now: float
    ) -> Set[str]:
        """The set of historical rdata texts for (domain, rrtype)."""
        return {
            observation.rdata_text
            for observation in self.history(domain, now, rrtype)
        }

    def record_in_history(
        self,
        domain: Union[str, Name],
        rrtype: int,
        rdata_text: str,
        now: float,
    ) -> bool:
        """Appendix B condition 5: was this exact record ever served?"""
        return rdata_text in self.historical_rdata(domain, rrtype, now)

    def __len__(self) -> int:
        return self._count
