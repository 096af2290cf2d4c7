"""Correct-record database and the Appendix-B uniformity conditions.

URHunter must not count a UR as abuse when it is really:

* the domain's genuine data reached through a misconfigured recursive
  nameserver, possibly geo-distributed (CDN), or
* a leftover of a *past delegation* (the domain moved providers).

The paper's insight (Appendix B): IP-level facts about a domain — its
addresses, ASes, locations, TLS certificates — are uniform because one
organisation operates them.  A UR whose facts are a subset of the
domain's known-correct facts is a correct record; so is one found in six
years of passive DNS.  An HTTP-keyword filter additionally excludes URs
pointing at parked/redirect pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from ..dns.name import Name, name
from ..dns.rdata import RRType
from ..intel.ipinfo import IpInfoDatabase, PAGE_KEYWORDS, PageKind
from ..intel.pdns import PassiveDnsStore
from ..pipeline.resilience import SourceGuard, SourceHealth
from .records import UndelegatedRecord

#: Names for the five Appendix-B conditions plus the HTTP filter, used in
#: verdict reasons and in the ablation benchmarks.
COND_IP = "ip-subset"
COND_AS = "as-subset"
COND_GEO = "geo-subset"
COND_CERT = "cert-subset"
COND_PDNS = "pdns-history"
COND_HTTP = "http-keyword"
ALL_CONDITIONS = frozenset(
    {COND_IP, COND_AS, COND_GEO, COND_CERT, COND_PDNS, COND_HTTP}
)


@dataclass
class DomainProfile:
    """The known-correct facts for one domain."""

    domain: Name
    ips: Set[str] = field(default_factory=set)
    asns: Set[int] = field(default_factory=set)
    countries: Set[str] = field(default_factory=set)
    cert_orgs: Set[str] = field(default_factory=set)
    txt_values: Set[str] = field(default_factory=set)
    mx_values: Set[str] = field(default_factory=set)

    def merge_ip(self, address: str, info: IpInfoDatabase) -> None:
        """Fold one correct A answer (and its metadata) into the profile."""
        self.ips.add(address)
        meta = info.lookup(address)
        self.asns.add(meta.asn)
        self.countries.add(meta.country)
        if meta.cert_org is not None:
            self.cert_orgs.add(meta.cert_org)


class CorrectRecordDatabase:
    """Per-domain profiles built from open resolvers and historical data.

    §4.1(2): URHunter queries ~3K open resolvers worldwide for the A and
    TXT records of every targeted domain and folds in the IP metadata of
    every answer.
    """

    def __init__(self, ipinfo: IpInfoDatabase):
        self.ipinfo = ipinfo
        self._profiles: Dict[Name, DomainProfile] = {}
        # domains() is called on hot report paths; re-sorting every call
        # is wasted work, so the sorted view is cached and invalidated
        # whenever a new profile appears
        self._domains_cache: Optional[List[Name]] = None

    def profile(self, domain: Union[str, Name]) -> DomainProfile:
        domain = name(domain)
        existing = self._profiles.get(domain)
        if existing is None:
            existing = DomainProfile(domain=domain)
            self._profiles[domain] = existing
            self._domains_cache = None
        return existing

    def observe_a(self, domain: Union[str, Name], address: str) -> None:
        self.profile(domain).merge_ip(address, self.ipinfo)

    def observe_txt(self, domain: Union[str, Name], value: str) -> None:
        self.profile(domain).txt_values.add(value)

    def observe_mx(self, domain: Union[str, Name], value: str) -> None:
        self.profile(domain).mx_values.add(value)

    def domains(self) -> List[Name]:
        if self._domains_cache is None:
            self._domains_cache = sorted(self._profiles)
        return list(self._domains_cache)


#: the conditions that need IP metadata (AS, geo, cert, HTTP content)
META_CONDITIONS = (COND_AS, COND_GEO, COND_CERT, COND_HTTP)


@dataclass(frozen=True)
class CorrectnessVerdict:
    """Why (or why not) a UR was excluded as a correct record.

    ``degraded_conditions`` lists enabled conditions that could not be
    evaluated because their data source was unavailable; a suspicious
    verdict carrying them is *unverifiable*, not definitive.
    """

    is_correct: bool
    matched_condition: Optional[str] = None
    degraded_conditions: Tuple[str, ...] = ()


class UniformityChecker:
    """Implements Appendix B over a correct-record database + passive DNS.

    ``enabled_conditions`` supports the ablation study: removing
    conditions widens the suspicious set (more false positives among
    CDN-backed domains); the default enables everything, matching the
    paper.

    Both external dependencies — the passive-DNS API and the IP
    metadata service — are consulted through a
    :class:`~repro.pipeline.resilience.SourceGuard`: a flaky source is
    retried, a dead one is circuit-broken and its conditions are
    *skipped* (recorded per-condition in :attr:`skipped_conditions`)
    instead of aborting the exclusion stage.  ``ipinfo`` overrides the
    database's own metadata service, which lets the chaos harness
    fault-inject stage 2 without touching the stage-1 profiles.
    """

    def __init__(
        self,
        database: CorrectRecordDatabase,
        pdns: Optional[PassiveDnsStore] = None,
        enabled_conditions: FrozenSet[str] = ALL_CONDITIONS,
        ipinfo: Optional[IpInfoDatabase] = None,
    ):
        unknown = enabled_conditions - ALL_CONDITIONS
        if unknown:
            raise ValueError(f"unknown conditions: {sorted(unknown)}")
        self.database = database
        self.pdns = pdns
        self.enabled = enabled_conditions
        self.ipinfo = ipinfo if ipinfo is not None else database.ipinfo
        self.guard = SourceGuard()
        #: condition name -> number of records it could not be checked for
        self.skipped_conditions: Dict[str, int] = {}
        # verdict memo: distinct (domain, rrtype, rdata) keys repeat once
        # per nameserver serving them, so each is evaluated once and the
        # verdict fanned back out (see check_cached)
        self._memo: Dict[Tuple, CorrectnessVerdict] = {}
        #: memo accounting, read by Stage2Metrics
        self.memo_hits = 0
        self.memo_misses = 0

    @property
    def memoizable(self) -> bool:
        """May repeat evaluations be answered from the verdict memo?

        Only when every consulted source is *deterministic* — repeat
        calls provably return the same answer and carry no call-count
        dependent side effects.  The in-memory stores qualify; fault
        injectors (chaos mode) do not, so degraded runs take the exact
        per-record path and stay byte-identical to the naive
        implementation.
        """
        if not getattr(self.ipinfo, "deterministic", False):
            return False
        if self.pdns is not None and not getattr(
            self.pdns, "deterministic", False
        ):
            return False
        return True

    def check_cached(
        self, record: UndelegatedRecord, now: float = 0.0
    ) -> CorrectnessVerdict:
        """Like :meth:`check`, but memoized per distinct UR key.

        The cache key folds in the guard's degraded-event counter: any
        change in source availability invalidates verdicts cached under
        the previous state, so a memoized answer is always one the live
        path would have produced under the current conditions.
        """
        if not self.memoizable:
            return self.check(record, now)
        key = (
            record.domain,
            record.rrtype,
            record.rdata_text,
            now,
            self.guard.degraded_events,
        )
        hit = self._memo.get(key)
        if hit is not None:
            self.memo_hits += 1
            return hit
        verdict = self.check(record, now)
        self.memo_misses += 1
        self._memo[key] = verdict
        return verdict

    def _note_skips(self, conditions: Tuple[str, ...]) -> None:
        for condition in conditions:
            self.skipped_conditions[condition] = (
                self.skipped_conditions.get(condition, 0) + 1
            )

    def source_health(self) -> Dict[str, SourceHealth]:
        """Health ledgers for pdns/ipinfo (see ``DegradedSources``)."""
        return self.guard.snapshot()

    def _pdns_hit(
        self, record: UndelegatedRecord, rrtype: int, now: float
    ) -> Tuple[bool, bool]:
        """(available, matched) for the pdns-history condition."""
        ok, hit = self.guard.try_call(
            "pdns",
            self.pdns.record_in_history,
            record.domain,
            rrtype,
            record.rdata_text,
            now,
        )
        return ok, bool(hit)

    def check(
        self, record: UndelegatedRecord, now: float = 0.0
    ) -> CorrectnessVerdict:
        """Evaluate every enabled condition against ``record``."""
        if record.rrtype == RRType.A:
            return self._check_a(record, now)
        if record.rrtype == RRType.TXT:
            return self._check_txt(record, now)
        if record.rrtype == RRType.MX:
            return self._check_mx(record, now)
        return CorrectnessVerdict(is_correct=False)

    # -- A records -------------------------------------------------------

    def _check_a(
        self, record: UndelegatedRecord, now: float
    ) -> CorrectnessVerdict:
        address = record.rdata_text
        profile = self.database.profile(record.domain)
        degraded: List[str] = []

        if COND_IP in self.enabled and profile.ips:
            if address in profile.ips:
                return CorrectnessVerdict(True, COND_IP)

        # the metadata-backed conditions share one guarded lookup
        meta = None
        if any(cond in self.enabled for cond in META_CONDITIONS):
            ok, meta = self.guard.try_call(
                "ipinfo", self.ipinfo.lookup, address
            )
            if not ok:
                meta = None
                degraded.extend(
                    cond for cond in META_CONDITIONS if cond in self.enabled
                )

        if COND_AS in self.enabled and profile.asns and meta is not None:
            if meta.asn in profile.asns and meta.asn != IpInfoDatabase.UNKNOWN_ASN:
                return CorrectnessVerdict(True, COND_AS)
        if COND_GEO in self.enabled and profile.countries and meta is not None:
            # Plain subset semantics, faithful to Appendix B.  Geo is the
            # weakest condition (an attacker can rent a server in the same
            # country); the ablation benchmark quantifies this.
            if meta.country in profile.countries:
                return CorrectnessVerdict(True, COND_GEO)
        if COND_CERT in self.enabled and profile.cert_orgs and meta is not None:
            if meta.cert_org is not None and meta.cert_org in profile.cert_orgs:
                return CorrectnessVerdict(True, COND_CERT)
        if COND_PDNS in self.enabled and self.pdns is not None:
            available, hit = self._pdns_hit(record, RRType.A, now)
            if available and hit:
                return CorrectnessVerdict(True, COND_PDNS)
            if not available:
                degraded.append(COND_PDNS)
        if COND_HTTP in self.enabled and meta is not None:
            page = meta.http
            if page.kind in (PageKind.PARKED, PageKind.REDIRECT):
                return CorrectnessVerdict(True, COND_HTTP)
            for kind in (PageKind.PARKED, PageKind.REDIRECT):
                if page.contains_keywords(PAGE_KEYWORDS[kind]):
                    return CorrectnessVerdict(True, COND_HTTP)
        if degraded:
            self._note_skips(tuple(degraded))
        return CorrectnessVerdict(False, degraded_conditions=tuple(degraded))

    # -- TXT records ------------------------------------------------------

    def _check_txt(
        self, record: UndelegatedRecord, now: float
    ) -> CorrectnessVerdict:
        profile = self.database.profile(record.domain)
        # §4.2: "URHunter excludes correct TXT records that exactly match
        # the correct records in the database."
        if record.rdata_text in profile.txt_values:
            return CorrectnessVerdict(True, COND_IP)
        if COND_PDNS in self.enabled and self.pdns is not None:
            available, hit = self._pdns_hit(record, RRType.TXT, now)
            if available and hit:
                return CorrectnessVerdict(True, COND_PDNS)
            if not available:
                self._note_skips((COND_PDNS,))
                return CorrectnessVerdict(
                    False, degraded_conditions=(COND_PDNS,)
                )
        return CorrectnessVerdict(False)

    # -- MX records (future-work record type) ------------------------------

    def _check_mx(
        self, record: UndelegatedRecord, now: float
    ) -> CorrectnessVerdict:
        profile = self.database.profile(record.domain)
        if record.rdata_text in profile.mx_values:
            return CorrectnessVerdict(True, COND_IP)
        if COND_PDNS in self.enabled and self.pdns is not None:
            available, hit = self._pdns_hit(record, RRType.MX, now)
            if available and hit:
                return CorrectnessVerdict(True, COND_PDNS)
            if not available:
                self._note_skips((COND_PDNS,))
                return CorrectnessVerdict(
                    False, degraded_conditions=(COND_PDNS,)
                )
        return CorrectnessVerdict(False)
