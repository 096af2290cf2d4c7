"""Recursive, stub, and open resolvers over the simulated internet.

The recursive resolver implements real iterative resolution: it walks from
the root hints through TLD referrals to authoritative servers, follows glue
(and resolves glueless NS targets), chases CNAMEs, and caches by TTL against
the network's virtual clock.

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
from .name import Name, name
from .rdata import A, CNAME, RRType
from .zone import LookupStatus  # noqa: F401  (re-exported for tests)

MAX_REFERRALS = 24
MAX_CNAME_DEPTH = 8


class ResolutionError(RuntimeError):
    """Raised when iterative resolution cannot make progress."""


@dataclass
class CacheEntry:
    expires: float
    records: Tuple[ResourceRecord, ...]
    rcode: int


@dataclass
class ResolverStats:
    """Counters exposed for tests and benchmarks."""

    queries_received: int = 0
    upstream_queries: int = 0
    cache_hits: int = 0
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
        query_cache: Optional[Dict[Tuple[Name, int], Message]] = None,
    ):
        if not root_hints:
            raise ValueError("a resolver needs at least one root hint")
        self.address = address
        self.network = network
        self.root_hints = list(root_hints)
        self.cache_enabled = cache_enabled
        self._cache: Dict[Tuple[Name, int], CacheEntry] = {}
        #: upstream query messages by (qname, qtype), built once and
        #: re-sent: a repeated message keeps the authoritative servers'
        #: compiled answers on their cheapest path.  Resolvers walking
        #: the same names may be given one dict to share (the world
        #: builder does that for the open resolvers)
        self.query_cache: Dict[Tuple[Name, int], Message] = (
            {} if query_cache is None else query_cache
        )
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
        servers = list(self.root_hints)
        visited: List[str] = []
        for _ in range(MAX_REFERRALS):
            response = self._query_any(servers, qname, qtype)
            if response is None:
                raise ResolutionError(
                    f"no nameserver answered for {qname} "
                    f"(tried {', '.join(visited) or 'none'})"
                )
            if response.header.rcode == Rcode.NXDOMAIN:
                return response
            if response.header.rcode != Rcode.NOERROR:
                raise ResolutionError(
                    f"upstream returned {Rcode.to_text(response.header.rcode)}"
                    f" for {qname}"
                )
            if response.answers or not response.is_referral():
                return response
            # Referral: find addresses for the delegated nameservers.
            next_servers: List[str] = []
            for target in response.referral_targets():
                glue = response.glue_address(target)
                if glue is not None:
                    next_servers.append(glue)
            if not next_servers:
                # Glueless delegation: resolve the NS targets' A records.
                for target in response.referral_targets():
                    try:
                        next_servers.extend(self.lookup_a(target))
                    except ResolutionError:
                        continue
                    if next_servers:
                        break
            if not next_servers:
                raise ResolutionError(
                    f"cannot find addresses for delegation of {qname}"
                )
            visited.extend(servers[:1])
            servers = next_servers
        raise ResolutionError(f"referral loop resolving {qname}")

    def _query_any(
        self, servers: List[str], qname: Name, qtype: int
    ) -> Optional[Message]:
        query = self.query_cache.get((qname, qtype))
        if query is None:
            query = self.query_cache[(qname, qtype)] = Message.make_query(
                qname, qtype, recursion_desired=False
            )
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
        )

    def flush_cache(self) -> None:
        self._cache.clear()


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
        query_cache: Optional[Dict[Tuple[Name, int], Message]] = None,
    ):
        super().__init__(
            address, network, root_hints, query_cache=query_cache
        )
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
