"""IP metadata: AS, geolocation, TLS certificates, HTTP page classes.

Stands in for the MaxMind lookups and the HTTP/TLS probing URHunter's
stage 1 performs on every undelegated A record.  The database resolves a
specific registration first, then falls back to per-prefix defaults —
exactly how AS/geo data behaves (prefix-granular) versus cert/HTTP data
(host-granular).

Performance: stage 2 resolves metadata for every candidate A record, so
``lookup`` must not linear-scan the registered prefixes.  The database
keeps an interval index bucketed by prefix length (longest-prefix match
becomes ≤ 33 dict probes, one per distinct registered length) plus an
LRU cache of assembled :class:`IpMetadata`, so the four per-field
helpers (``asn``/``country``/``cert_org``/``http``) share one cached
lookup instead of four scans.  ``indexed=False`` / ``cache_size=0``
keep the naive path alive for benchmarking and equivalence testing.
"""

from __future__ import annotations

import enum
import ipaddress
from collections import OrderedDict
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
    def redirect(cls, location: str = "https://example.invalid/") -> "HttpPage":
        return cls(
            status=301,
            title="Redirecting",
            body=f"Redirecting you to {location} ...",
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

    #: repeat lookups always return the same answer — memoization-safe
    #: (fault-injecting wrappers advertise ``False`` instead)
    deterministic = True

    def __init__(self, indexed: bool = True, cache_size: int = 4096) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self._prefixes: List[_PrefixInfo] = []
        self._hosts: Dict[str, IpMetadata] = {}
        self._indexed = indexed
        # lazy longest-prefix-match index: {prefixlen: {masked_int: info}},
        # rebuilt on first lookup after a register_prefix
        self._prefix_index: Optional[Dict[int, Dict[int, _PrefixInfo]]] = None
        self._index_lengths: Tuple[int, ...] = ()
        # LRU of assembled metadata for non-host addresses
        self._cache_size = cache_size
        self._cache: "OrderedDict[str, IpMetadata]" = OrderedDict()
        #: metadata-cache accounting (stage-2 observability)
        self.cache_hits = 0
        self.cache_misses = 0

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
        # a new prefix can change any cached or indexed answer
        self._prefix_index = None
        self._cache.clear()

    def register_host(
        self,
        address: str,
        cert_org: Optional[str] = None,
        http: Optional[HttpPage] = None,
        asn: Optional[int] = None,
        as_name: Optional[str] = None,
        country: Optional[str] = None,
    ) -> IpMetadata:
        """Record host-level facts, inheriting prefix defaults."""
        base = self._prefix_defaults(address)
        meta = IpMetadata(
            address=address,
            asn=asn if asn is not None else base[0],
            as_name=as_name if as_name is not None else base[1],
            country=country if country is not None else base[2],
            cert_org=cert_org,
            http=http if http is not None else HttpPage.none(),
        )
        self._hosts[address] = meta
        # the host override supersedes any cached prefix-derived answer
        self._cache.pop(address, None)
        return meta

    # -- lookup ---------------------------------------------------------

    def _prefix_scan(self, address: str) -> Tuple[int, str, str]:
        """The reference O(prefixes) longest-prefix match."""
        packed = ipaddress.IPv4Address(address)
        best: Optional[_PrefixInfo] = None
        for info in self._prefixes:
            if packed in info.network:
                if best is None or (
                    info.network.prefixlen > best.network.prefixlen
                ):
                    best = info
        if best is None:
            return (self.UNKNOWN_ASN, "UNKNOWN", "ZZ")
        return (best.asn, best.as_name, best.country)

    def _build_index(self) -> None:
        index: Dict[int, Dict[int, _PrefixInfo]] = {}
        for info in self._prefixes:
            bucket = index.setdefault(info.network.prefixlen, {})
            # setdefault: the scan keeps the *first* registration of a
            # duplicate network (strictly-greater replacement rule), so
            # the index must too
            bucket.setdefault(int(info.network.network_address), info)
        self._prefix_index = index
        # longest first: the first bucket hit is the longest match
        self._index_lengths = tuple(sorted(index, reverse=True))

    def _prefix_defaults(self, address: str) -> Tuple[int, str, str]:
        as_int = ip_to_int(address)  # validates
        if not self._indexed:
            return self._prefix_scan(address)
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
        if self._cache_size:
            cached = self._cache.get(address)
            if cached is not None:
                self.cache_hits += 1
                self._cache.move_to_end(address)
                return cached
            self.cache_misses += 1
        asn, as_name, country = self._prefix_defaults(address)
        meta = IpMetadata(
            address=address, asn=asn, as_name=as_name, country=country
        )
        if self._cache_size:
            self._cache[address] = meta
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return meta

    def asn(self, address: str) -> int:
        return self.lookup(address).asn

    def country(self, address: str) -> str:
        return self.lookup(address).country

    def cert_org(self, address: str) -> Optional[str]:
        return self.lookup(address).cert_org

    def http(self, address: str) -> HttpPage:
        return self.lookup(address).http

    def known_hosts(self) -> List[str]:
        return list(self._hosts)
