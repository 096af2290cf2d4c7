"""IP metadata: AS, geolocation, TLS certificates, HTTP page classes.

Stands in for the MaxMind lookups and the HTTP/TLS probing URHunter's
stage 1 performs on every undelegated A record.  The database resolves a
specific registration first, then falls back to per-prefix defaults —
exactly how AS/geo data behaves (prefix-granular) versus cert/HTTP data
(host-granular).

Performance: stage 2 resolves metadata for every candidate A record, so
``lookup`` must not linear-scan the registered prefixes.  The database
keeps an interval index bucketed by prefix length (longest-prefix match
becomes ≤ 33 dict probes, one per distinct registered length).  There
is no result cache: every address stage 2 looks up is a registered
host, answered from the host table before the index.  Callers read the
fields of one :meth:`IpInfoDatabase.lookup`.  The O(prefixes) reference
scan lives in the equivalence tests.
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..net.address import ip_to_int


class PageKind(enum.Enum):
    """Coarse classification of the HTTP content at an IP."""

    NONE = "none"  # nothing listening / connection refused
    NORMAL = "normal"  # an ordinary site
    PARKED = "parked"  # domain-parking page
    REDIRECT = "redirect"  # redirection page
    WARNING = "warning"  # provider protective/warning page


#: Keywords URHunter's HTTP filter looks for (Appendix B).
PAGE_KEYWORDS = {
    PageKind.PARKED: ("parked", "parking", "this domain is for sale"),
    PageKind.REDIRECT: ("redirecting", "moved permanently", "meta refresh"),
    PageKind.WARNING: ("not hosted", "warning", "suspended"),
}


@dataclass(frozen=True)
class HttpPage:
    """A probed HTTP response."""

    status: int = 200
    title: str = ""
    body: str = ""
    kind: PageKind = PageKind.NORMAL

    @classmethod
    def none(cls) -> "HttpPage":
        return cls(status=0, kind=PageKind.NONE)

    @classmethod
    def parked(cls) -> "HttpPage":
        return cls(
            status=200,
            title="Domain parked",
            body="This domain is parked free, courtesy of the registrar.",
            kind=PageKind.PARKED,
        )

    @classmethod
    def redirect(cls) -> "HttpPage":
        return cls(
            status=301,
            title="Redirecting",
            body="Redirecting you to https://example.invalid/ ...",
            kind=PageKind.REDIRECT,
        )

    @classmethod
    def warning(cls, provider: str) -> "HttpPage":
        return cls(
            status=200,
            title=f"{provider} — domain not hosted",
            body=(
                f"Warning: this domain is not hosted at {provider}. "
                "If you are the owner, finish your delegation."
            ),
            kind=PageKind.WARNING,
        )

    def contains_keywords(self, keywords: Tuple[str, ...]) -> bool:
        haystack = (self.title + " " + self.body).lower()
        return any(keyword in haystack for keyword in keywords)


@dataclass(frozen=True)
class IpMetadata:
    """Everything URHunter collects about one IPv4 address."""

    address: str
    asn: int
    as_name: str
    country: str
    #: TLS certificate subject organisation, when a cert is served
    cert_org: Optional[str] = None
    http: HttpPage = field(default_factory=HttpPage.none)


@dataclass
class _PrefixInfo:
    network: ipaddress.IPv4Network
    asn: int
    as_name: str
    country: str


class IpInfoDatabase:
    """Prefix-level AS/geo defaults plus host-level overrides."""

    UNKNOWN_ASN = 0

    #: repeat lookups always return the same answer — safe to dedup
    #: (fault-injecting wrappers advertise ``False`` instead)
    deterministic = True

    def __init__(self) -> None:
        self._prefixes: List[_PrefixInfo] = []
        self._hosts: Dict[str, IpMetadata] = {}
        # lazy longest-prefix-match index: {prefixlen: {masked_int: info}},
        # rebuilt on first lookup after a register_prefix
        self._prefix_index: Optional[Dict[int, Dict[int, _PrefixInfo]]] = None
        self._index_lengths: Tuple[int, ...] = ()

    # -- population --------------------------------------------------------

    def register_prefix(
        self, cidr: str, asn: int, as_name: str, country: str
    ) -> None:
        """Declare AS/geo defaults for every address in ``cidr``."""
        self._prefixes.append(
            _PrefixInfo(
                network=ipaddress.IPv4Network(cidr),
                asn=asn,
                as_name=as_name,
                country=country,
            )
        )
        # a new prefix can change any indexed answer
        self._prefix_index = None

    def register_host(
        self,
        address: str,
        cert_org: Optional[str] = None,
        http: Optional[HttpPage] = None,
    ) -> IpMetadata:
        """Record host-level facts; AS and country are the prefix's."""
        asn, as_name, country = self._prefix_defaults(address)
        meta = IpMetadata(
            address=address,
            asn=asn,
            as_name=as_name,
            country=country,
            cert_org=cert_org,
            http=http if http is not None else HttpPage.none(),
        )
        self._hosts[address] = meta
        return meta

    # -- lookup ---------------------------------------------------------

    def _build_index(self) -> None:
        index: Dict[int, Dict[int, _PrefixInfo]] = {}
        for info in self._prefixes:
            bucket = index.setdefault(info.network.prefixlen, {})
            # setdefault: the *first* registration of a duplicate
            # network wins
            bucket.setdefault(int(info.network.network_address), info)
        self._prefix_index = index
        # longest first: the first bucket hit is the longest match
        self._index_lengths = tuple(sorted(index, reverse=True))

    def _prefix_defaults(self, address: str) -> Tuple[int, str, str]:
        as_int = ip_to_int(address)  # validates
        if self._prefix_index is None:
            self._build_index()
        for prefixlen in self._index_lengths:
            shift = 32 - prefixlen
            info = self._prefix_index[prefixlen].get(
                (as_int >> shift) << shift
            )
            if info is not None:
                return (info.asn, info.as_name, info.country)
        return (self.UNKNOWN_ASN, "UNKNOWN", "ZZ")

    def lookup(self, address: str) -> IpMetadata:
        """Full metadata for ``address`` (never raises for unknown hosts)."""
        hit = self._hosts.get(address)
        if hit is not None:
            return hit
        asn, as_name, country = self._prefix_defaults(address)
        return IpMetadata(
            address=address, asn=asn, as_name=as_name, country=country
        )
