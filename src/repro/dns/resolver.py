"""Recursive, stub, and open resolvers over the simulated internet.

The recursive resolver implements real iterative resolution: it walks from
the root hints through TLD referrals to authoritative servers, follows glue
(and resolves glueless NS targets), chases CNAMEs, and caches by TTL against
the network's virtual clock — answers, and the zone cuts it was referred
across, so the next name under ``.com`` starts at ``.com``'s servers and
not at the root.  Both caches live on one timeline only: pinning the
clock (:meth:`~repro.net.network.SimulatedInternet.set_clock`) empties
them.

Open resolvers are recursive resolvers exposed publicly; URHunter's stage 1
uses a worldwide set of them to learn *correct records*.  A small fraction
of real-world open resolvers manipulate answers, which the simulation can
reproduce via a response rewriter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

# the module, not its names: repro.net imports repro.dns.message, so
# whichever package is imported first finds the other mid-import here
from ..net import network as _net
from .message import Message, Rcode, ResourceRecord
from .name import ROOT, Name, name
from .rdata import A, CNAME, NS, RRType
from .zone import LookupStatus  # noqa: F401  (re-exported for tests)

MAX_REFERRALS = 24
MAX_CNAME_DEPTH = 8


class ResolutionError(RuntimeError):
    """Raised when iterative resolution cannot make progress."""


@dataclass
class CacheEntry:
    """A cached lookup: the sections a hit hands back as the miss did —
    answers, and authorities (a negative answer's SOA, RFC 2308 §5)."""

    expires: float
    records: Tuple[ResourceRecord, ...]
    rcode: int
    authorities: Tuple[ResourceRecord, ...] = ()


@dataclass
class ZoneCut:
    """A delegation learned from a referral: whom to ask at or below
    ``zone``, until ``expires`` on the network's virtual clock."""

    zone: Name
    servers: List[str]
    expires: float


@dataclass
class ResolverStats:
    """Counters exposed for tests and benchmarks.

    ``upstream_queries`` per lookup is explained by the cut cache's
    three: a walk that found a cached cut to start at
    (``delegation_hits``), cuts found past their TTL on the way there
    (``delegation_expired``), and cuts dropped because their servers
    failed (``delegation_evicted``).
    """

    queries_received: int = 0
    upstream_queries: int = 0
    cache_hits: int = 0
    delegation_hits: int = 0
    delegation_expired: int = 0
    delegation_evicted: int = 0
    failures: int = 0


class RecursiveResolver:
    """An iterative ("full service") resolver.

    Registered on the simulated network as a DNS service, it accepts
    recursion-desired queries from stubs and performs the full referral
    walk itself.
    """

    def __init__(
        self,
        address: str,
        network: "object",
        root_hints: List[str],
        cache_enabled: bool = True,
    ):
        if not root_hints:
            raise ValueError("a resolver needs at least one root hint")
        self.address = address
        self.network = network
        self.root_hints = list(root_hints)
        #: False: no answer is cached and no cut either — every lookup
        #: walks from the root hints (the oracle the caches are tested
        #: against)
        self.cache_enabled = cache_enabled
        self._cache: Dict[Tuple[Name, int], CacheEntry] = {}
        #: zone cuts by the zone's lowered labels (suffix slices of a
        #: qname's labels key the closest-cut lookup)
        self._cuts: Dict[Tuple[str, ...], ZoneCut] = {}
        #: the network clock generation the caches were filled under
        self._clock_generation = network.clock_generation
        #: one pinned DNS path per upstream server
        self._channels: Dict[str, _net.DnsChannel] = {}
        self.stats = ResolverStats()

    # -- public API -----------------------------------------------------

    def resolve(self, qname: Union[str, Name], qtype: int) -> Message:
        """Resolve ``qname``/``qtype``; returns the final response message.

        The returned message has NOERROR with answers, NOERROR with no
        answers (NODATA), or NXDOMAIN.  Hard failures raise
        :class:`ResolutionError`.
        """
        qname = name(qname)
        generation = self.network.clock_generation
        if generation != self._clock_generation:
            # the clock was pinned: expiries taken before mean nothing now
            self._clock_generation = generation
            self.flush_cache()
        cached = self._cache_get(qname, qtype)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        response = self._resolve_iteratively(qname, qtype)
        self._cache_put(qname, qtype, response)
        return response

    def lookup_a(self, qname: Union[str, Name]) -> List[str]:
        """Convenience: resolve A records, returning address strings."""
        response = self.resolve(qname, RRType.A)
        return [
            record.rdata.address
            for record in response.answers
            if isinstance(record.rdata, A)
        ]

    # -- DnsService protocol ---------------------------------------------

    def handle_dns_query(
        self,
        query: Message,
        src_ip: str,
        network: object,
        query_key: object = None,
    ) -> Optional[Message]:
        self.stats.queries_received += 1
        if not query.questions:
            return query.make_response(rcode=Rcode.FORMERR)
        if not query.header.recursion_desired:
            return query.make_response(rcode=Rcode.REFUSED)
        question = query.questions[0]
        try:
            resolved = self.resolve(question.qname, question.qtype)
        except ResolutionError:
            self.stats.failures += 1
            return query.make_response(
                rcode=Rcode.SERVFAIL, recursion_available=True
            )
        response = query.make_response(
            rcode=resolved.header.rcode, recursion_available=True
        )
        response.answers = list(resolved.answers)
        response.authorities = list(resolved.authorities)
        return self._postprocess(response)

    def _postprocess(self, response: Message) -> Message:
        """Hook for subclasses (e.g. manipulated open resolvers)."""
        return response

    # -- iterative machinery ------------------------------------------------

    def _resolve_iteratively(self, qname: Name, qtype: int) -> Message:
        current_name = qname
        collected: List[ResourceRecord] = []
        cname_depth = 0
        while True:
            response = self._walk_referrals(current_name, qtype)
            if response.header.rcode == Rcode.NXDOMAIN:
                if collected:
                    final = Message()
                    final.header = response.header
                    final.answers = collected + list(response.answers)
                    return final
                return response
            answers = list(response.answers)
            collected.extend(answers)
            # Walk any CNAME chain already present in the answers (an
            # authoritative server chases in-zone chains itself).
            chain_end = current_name
            while True:
                step = next(
                    (
                        record.rdata
                        for record in collected
                        if record.owner == chain_end
                        and isinstance(record.rdata, CNAME)
                    ),
                    None,
                )
                if step is None:
                    break
                cname_depth += 1
                if cname_depth > MAX_CNAME_DEPTH:
                    raise ResolutionError(
                        f"CNAME chain too long for {qname}"
                    )
                chain_end = step.target
            direct = [
                record
                for record in collected
                if record.owner == chain_end and record.rrtype == qtype
            ]
            if (
                direct
                or qtype == RRType.CNAME
                or chain_end == current_name
            ):
                response.answers = collected
                return response
            # Chase the unresolved tail of the chain.
            current_name = chain_end

    def _walk_referrals(self, qname: Name, qtype: int) -> Message:
        """Follow referrals from the closest known cut down to an answer.

        Servers that fail (silent, or an rcode a zone's servers never
        give) are dropped from the cut cache; when they *came* from the
        cache the walk starts over one cut further up, so a cached cut
        costs a lookup at most its own failed exchange, never the
        answer.
        """
        zone, servers, cached = self._closest_cut(qname)
        for _ in range(MAX_REFERRALS):
            response = self._query_any(servers, qname, qtype)
            if response is None or response.header.rcode not in (
                Rcode.NOERROR,
                Rcode.NXDOMAIN,
            ):
                if self._cuts.pop(zone.lowered_labels, None) is not None:
                    self.stats.delegation_evicted += 1
                if cached:
                    zone, servers, cached = self._closest_cut(qname)
                    continue
                if response is None:
                    raise ResolutionError(
                        f"no nameserver of {zone.to_text()} answered for "
                        f"{qname} (tried {', '.join(servers)})"
                    )
                raise ResolutionError(
                    f"upstream returned {Rcode.to_text(response.header.rcode)}"
                    f" for {qname}"
                )
            if response.answers or not response.is_referral():
                return response
            zone, servers = self._follow_referral(zone, response, qname)
            cached = False
        raise ResolutionError(f"referral loop resolving {qname}")

    def _closest_cut(self, qname: Name) -> Tuple[Name, List[str], bool]:
        """Where a walk for ``qname`` starts: ``(zone, servers, cached)``
        of the deepest unexpired cut at or above it, else the root hints."""
        cuts = self._cuts
        if cuts:
            now = self.network.now
            labels = qname.lowered_labels
            for offset in range(len(labels)):
                cut = cuts.get(labels[offset:])
                if cut is None:
                    continue
                if now < cut.expires:
                    self.stats.delegation_hits += 1
                    return cut.zone, cut.servers, True
                del cuts[labels[offset:]]
                self.stats.delegation_expired += 1
        return ROOT, self.root_hints, False

    def _follow_referral(
        self, zone: Name, response: Message, qname: Name
    ) -> Tuple[Name, List[str]]:
        """The zone a referral from ``zone``'s servers delegates and the
        addresses of its nameservers (glue first, else resolved).

        The cut is remembered only when the referral is in bailiwick:
        one NS owner, strictly below the zone that referred and at or
        above ``qname``.  It lives as long as the shortest-lived record
        it was built from: the NS rrset, the glue used, or — for a
        glueless delegation — the cached address answer.
        """
        delegation = [
            record
            for record in response.authorities
            if isinstance(record.rdata, NS)
        ]
        owner = delegation[0].owner
        now = self.network.now
        expires = now + min(record.ttl for record in delegation)
        servers: List[str] = []
        for record in delegation:
            for glue in response.additionals:
                if glue.owner == record.rdata.target and isinstance(
                    glue.rdata, A
                ):
                    servers.append(glue.rdata.address)
                    expires = min(expires, now + glue.ttl)
                    break
        if not servers:
            # Glueless delegation: resolve the NS targets' A records.
            for record in delegation:
                target = record.rdata.target
                try:
                    servers.extend(self.lookup_a(target))
                except ResolutionError:
                    continue
                if servers:
                    resolved = self._cache.get((target, RRType.A))
                    if resolved is not None:
                        expires = min(expires, resolved.expires)
                    break
        if not servers:
            raise ResolutionError(
                f"cannot find addresses for delegation of {qname}"
            )
        if (
            self.cache_enabled
            and all(record.owner == owner for record in delegation)
            and owner.is_proper_subdomain_of(zone)
            and qname.is_subdomain_of(owner)
        ):
            self._cuts[owner.lowered_labels] = ZoneCut(owner, servers, expires)
        return owner, servers

    def _query_any(
        self, servers: List[str], qname: Name, qtype: int
    ) -> Optional[Message]:
        # the network's one message per question: a re-sent message
        # keeps the authoritative servers' compiled answers on their
        # cheapest path
        query = self.network.query_message(qname, qtype, False)
        channels = self._channels
        for server in servers:
            channel = channels.get(server)
            if channel is None:
                channel = channels[server] = self.network.open_channel(
                    self.address, server
                )
            try:
                self.stats.upstream_queries += 1
                return channel.query_auto(query)
            except _net.NetworkError:
                continue
        return None

    # -- cache ----------------------------------------------------------

    def _cache_get(self, qname: Name, qtype: int) -> Optional[Message]:
        if not self.cache_enabled:
            return None
        entry = self._cache.get((qname, qtype))
        if entry is None:
            return None
        if self.network.now >= entry.expires:
            del self._cache[(qname, qtype)]
            return None
        message = Message()
        message.header = message.header.__class__(
            is_response=True, rcode=entry.rcode, recursion_available=True
        )
        message.answers = list(entry.records)
        message.authorities = list(entry.authorities)
        return message

    def _cache_put(self, qname: Name, qtype: int, response: Message) -> None:
        if not self.cache_enabled:
            return
        ttl = min(
            (record.ttl for record in response.answers), default=300
        )
        self._cache[(qname, qtype)] = CacheEntry(
            expires=self.network.now + ttl,
            records=tuple(response.answers),
            rcode=response.header.rcode,
            authorities=tuple(response.authorities),
        )

    def flush_cache(self) -> None:
        """Forget every cached answer and zone cut, and the upstream
        channels (stateless lookups a later query reopens)."""
        self._cache.clear()
        self._cuts.clear()
        self._channels.clear()


ResponseRewriter = Callable[[Message], Message]


class OpenResolver(RecursiveResolver):
    """A publicly reachable recursive resolver.

    ``rewriter`` simulates answer manipulation (censorship, ad injection):
    applied to every response before it leaves the resolver.  URHunter's
    stage 1 assumes most vantage points are honest; scenario builders make
    a small fraction manipulated to stress that assumption.
    """

    def __init__(
        self,
        address: str,
        network: object,
        root_hints: List[str],
        rewriter: Optional[ResponseRewriter] = None,
        country: str = "US",
    ):
        super().__init__(address, network, root_hints)
        self.rewriter = rewriter
        self.country = country

    @property
    def is_manipulated(self) -> bool:
        return self.rewriter is not None

    def _postprocess(self, response: Message) -> Message:
        if self.rewriter is not None:
            return self.rewriter(response)
        return response


class StubResolver:
    """A client-side resolver forwarding to one recursive resolver."""

    def __init__(self, address: str, network: object, recursive_ip: str):
        self.address = address
        self.network = network
        self.recursive_ip = recursive_ip

    def resolve(self, qname: Union[str, Name], qtype: int) -> Message:
        query = Message.make_query(qname, qtype, recursion_desired=True)
        return self.network.query_dns_auto(self.address, self.recursive_ip, query)

    def lookup_a(self, qname: Union[str, Name]) -> List[str]:
        response = self.resolve(qname, RRType.A)
        return [
            record.rdata.address
            for record in response.answers
            if isinstance(record.rdata, A)
        ]
