"""Authoritative DNS servers.

An :class:`AuthoritativeServer` hosts zones and answers queries with the
behaviours that matter to the paper's measurement:

* normal authoritative answers for hosted zones (including zones that were
  never delegated — the mechanism behind undelegated records);
* configurable behaviour for *unhosted* names: ``REFUSED`` (the common
  default), provider-installed **protective records** (e.g. ClouDNS points
  unknown domains at a warning site), or **recursive fallback** (the
  misconfigured-resolver case the paper must exclude);
* delegation referrals with glue for in-zone cuts.
"""

from __future__ import annotations

import enum
import struct
from typing import Callable, Dict, List, Optional, Tuple, Union

from .message import Message, Rcode, ResourceRecord
from .name import Name, name
from .rdata import NS, RRType, Rdata
from .wire import WireError, _with_message_id, encode_answer
from .zone import LookupStatus, Zone

MAX_CNAME_CHAIN = 8

_MESSAGE_ID = struct.Struct("!H")


class _CompiledAnswer:
    """A prebuilt response for one (question, header-flags) shape.

    ``template`` is the wire codec's template for the response (see
    :func:`~repro.dns.wire.encode_answer`: the decode of ``wire``,
    sharing the zone's records) and ``wire`` its encoding; serving a
    hit is a dict lookup, a clone under the querier's id and a 2-byte
    wire patch.  Staleness is caught by the
    validators: ``zone.serial`` for zone-backed answers (bumped by
    ``Zone.add``/``Zone.remove``), and the unhosted-policy snapshot for
    synthesized answers.  Entries never survive ``load_zone``/
    ``unload_zone`` — those clear the whole cache — nor the end of a
    stage-1 group aimed at the server (``flush_cache``).
    """

    __slots__ = ("template", "wire", "zone", "serial", "policy", "extras")

    def __init__(
        self,
        template: Message,
        wire: bytes,
        zone: Optional[Zone],
        policy: "UnhostedPolicy",
        extras: Tuple[object, ...],
    ):
        self.template = template
        self.wire = wire
        self.zone = zone
        self.serial = zone.serial if zone is not None else 0
        self.policy = policy
        self.extras = extras


# Resolvers are imported lazily to avoid a module cycle
# (resolver -> server for tests, server -> resolver for fallback typing).
ResolveCallable = Callable[[Name, int], Optional[Message]]


class UnhostedPolicy(enum.Enum):
    """What the server does for names it hosts no zone for."""

    REFUSED = "refused"
    PROTECTIVE = "protective"
    RECURSIVE = "recursive"


class AuthoritativeServer:
    """A nameserver process serving a set of zones.

    One server object may be registered at several IP addresses (anycast /
    multi-homed nameservers, common among hosting providers).
    """

    def __init__(self, hostname: Union[str, Name]):
        self.hostname = name(hostname)
        #: how names with no zone here are answered; the hosting
        #: provider or the world deploying the server sets this and the
        #: two attributes below
        self.unhosted_policy = UnhostedPolicy.REFUSED
        #: protective RDATA by rrtype, synthesized at the queried owner name
        self.protective_records: List[Tuple[int, Rdata]] = []
        #: the lookup a RECURSIVE server answers unhosted names with
        self.recursive_fallback: Optional[ResolveCallable] = None
        #: the one zone map, in load order: lowered origin labels ->
        #: zone, so the closest enclosing zone is a suffix probe per
        #: label instead of a scan of every zone
        self._origin_index: Dict[Tuple[str, ...], Zone] = {}
        self.addresses: List[str] = []
        #: counters for tests/observability
        self.query_count = 0
        #: compiled answer cache (scan-path fast lane); flushed whenever
        #: the zone map changes and when a group that queried this
        #: server ends (:meth:`flush_cache`)
        self._compiled: Dict[object, _CompiledAnswer] = {}
        #: bumped on load_zone/unload_zone — observable by tests as the
        #: generation stamp behind compiled-cache invalidation
        self.generation = 0

    # -- zone management ----------------------------------------------------

    def load_zone(self, zone: Zone) -> None:
        """Serve ``zone``; replaces any existing zone at the same origin."""
        self._origin_index[zone.origin.lowered_labels] = zone
        self.generation += 1
        self._compiled.clear()

    def unload_zone(self, origin: Union[str, Name]) -> bool:
        """Stop serving the zone at ``origin``; True when it existed."""
        removed = self._origin_index.pop(name(origin).lowered_labels, None)
        if removed is None:
            return False
        self.generation += 1
        self._compiled.clear()
        return True

    def flush_cache(self) -> None:
        """Forget every compiled answer (a group ends: the server's
        next question may never come).  ``generation`` stays: nothing
        that can change an answer changed, so no result-store key
        moves."""
        self._compiled.clear()

    def zone_for(self, qname: Union[str, Name]) -> Optional[Zone]:
        """The closest enclosing hosted zone for ``qname``, if any."""
        lowered = name(qname).lowered_labels
        index = self._origin_index
        # walk qname, then each ancestor suffix, longest first
        for offset in range(len(lowered) + 1):
            zone = index.get(lowered[offset:])
            if zone is not None:
                return zone
        return None

    def hosts_zone(self, origin: Union[str, Name]) -> bool:
        return name(origin).lowered_labels in self._origin_index

    def zone_at(self, origin: Union[str, Name]) -> Optional[Zone]:
        """The zone loaded exactly at ``origin``, if any."""
        return self._origin_index.get(name(origin).lowered_labels)

    @property
    def zones(self) -> List[Zone]:
        return list(self._origin_index.values())

    # -- DnsService protocol -------------------------------------------------

    def handle_dns_query(
        self,
        query: Message,
        src_ip: str,
        network: object,
        query_key: object = None,
    ) -> Optional[Message]:
        """Answer one query.  Implements :class:`~repro.net.network.DnsService`.

        ``query_key`` is the structural key the transport's memoized
        codec computed for this query (None when the codec missed or
        the fast lane is off); the compiled-answer cache shares its
        structure.
        """
        self.query_count += 1
        if not query.questions:
            return query.make_response(rcode=Rcode.FORMERR)
        if getattr(network, "scan_cache_enabled", False):
            return self._answer_compiled(query, network, query_key)
        question = query.questions[0]
        zone = self.zone_for(question.qname)
        if zone is None:
            return self._answer_unhosted(query)
        return self._answer_from_zone(query, zone)

    # -- internals -----------------------------------------------------------

    def _answer_compiled(
        self, query: Message, network: object, query_key: object = None
    ) -> Message:
        """The fast lane: serve a prebuilt answer when one is still valid.

        Answering is a pure function of (question, query flags, zone
        contents, unhosted policy) — except the ``RECURSIVE`` fallback,
        which may resolve through the live network and is therefore
        never compiled.  The response header echoes everything from the
        query header but the rcode/response bits, so a template
        compiled under one message id serves any other id with a header
        swap and a 2-byte wire patch.

        A compiled response is a fresh clone of the template with its
        wire attached as ``compiled_wire``; the transport takes the
        wire off and hands the clone on as the decoded answer.

        Unhosted ``REFUSED`` answers are special-cased into a
        network-wide pool: their body depends only on the query, not on
        which server refused it, and a scan sends the same question to
        many servers.
        """
        # the transport threads the exact key its own query cache
        # computed; recompute only when it missed
        key = query_key
        if key is None:
            key = (
                query.header.flags_word(),
                tuple(
                    (question.qname.labels, question.qtype, question.qclass)
                    for question in query.questions
                ),
            )
        metrics = getattr(network, "scanpath", None)
        entry = self._compiled.get(key)
        if entry is not None and self._compiled_fresh(entry):
            if metrics is not None:
                metrics.compiled_hits += 1
            return self._serve_template(
                entry.template, entry.wire, query.header.message_id
            )
        question = query.questions[0]
        zone = self.zone_for(question.qname)
        if zone is None and self.unhosted_policy is UnhostedPolicy.REFUSED:
            return self._answer_refused_pooled(query, key, network, metrics)
        if zone is None:
            if (
                self.unhosted_policy is UnhostedPolicy.RECURSIVE
                and self.recursive_fallback is not None
            ):
                return self._answer_unhosted(query)
            response = self._answer_unhosted(query)
        else:
            response = self._answer_from_zone(query, zone)
        if metrics is not None:
            metrics.compiled_misses += 1
        compiled = self._compile(response, network)
        if compiled is None:
            return response
        template, wire = compiled
        self._compiled[key] = _CompiledAnswer(
            template=template,
            wire=wire,
            zone=zone,
            policy=self.unhosted_policy,
            extras=(
                ()
                if zone is not None
                else (
                    tuple(self.protective_records),
                    self.recursive_fallback,
                )
            ),
        )
        return self._serve_template(
            template, wire, response.header.message_id
        )

    @staticmethod
    def _compile(
        response: Message, network: object
    ) -> Optional[Tuple[Message, bytes]]:
        """``(template, wire)`` for a freshly built answer, or None when
        it cannot be compiled: an unencodable answer, or a wire that
        does not decode, surfaces its error on the transport's own
        codec call, exactly as on the naive path."""
        codec = getattr(network, "codec", None)
        try:
            # the shared codec hands back the template it already holds
            # when the same answer body went to another prober
            wire, template = (
                codec.encode(response)
                if codec is not None
                else encode_answer(response)
            )
        except WireError:
            return None
        if template is None:
            return None
        return template, wire

    @staticmethod
    def _serve_template(
        template: Message, wire: bytes, message_id: int
    ) -> Message:
        """A clone of a compiled template under the querier's message
        id, its wire attached for the transport."""
        response = _with_message_id(template, message_id)
        response.compiled_wire = _MESSAGE_ID.pack(message_id) + wire[2:]
        return response

    def _answer_refused_pooled(
        self, query: Message, key, network: object, metrics
    ) -> Message:
        """Unhosted REFUSED via the network-wide template pool.

        Pool entries are valid forever: the body is a pure echo of the
        query plus the REFUSED rcode, independent of any server state —
        a server whose policy changes away from REFUSED simply stops
        consulting the pool.
        """
        pool = network.refused_pool
        cached = pool.get(key)
        if cached is not None:
            if metrics is not None:
                metrics.compiled_hits += 1
            template, wire = cached
            return self._serve_template(
                template, wire, query.header.message_id
            )
        if metrics is not None:
            metrics.compiled_misses += 1
        response = query.make_response(rcode=Rcode.REFUSED)
        # the pool is this body's one cache: the codec's answer cache
        # would only hold a second copy that nothing ever hits
        compiled = self._compile(response, None)
        if compiled is None:
            return response
        if len(pool) >= 65536:
            pool.pop(next(iter(pool)))
        pool[key] = compiled
        template, wire = compiled
        return self._serve_template(
            template, wire, response.header.message_id
        )

    def _compiled_fresh(self, entry: _CompiledAnswer) -> bool:
        if entry.zone is not None:
            return entry.zone.serial == entry.serial
        return entry.policy is self.unhosted_policy and entry.extras == (
            tuple(self.protective_records),
            self.recursive_fallback,
        )

    def _answer_unhosted(self, query: Message) -> Message:
        question = query.questions[0]
        if (
            self.unhosted_policy is UnhostedPolicy.PROTECTIVE
            and self.protective_records
        ):
            response = query.make_response(
                rcode=Rcode.NOERROR, authoritative=True
            )
            for rrtype, rdata in self.protective_records:
                if rrtype == question.qtype or question.qtype == RRType.ANY:
                    response.answers.append(
                        ResourceRecord(question.qname, rdata, ttl=300)
                    )
            if not response.answers:
                # Protective data exists but not for this type: NODATA.
                return response
            return response
        if (
            self.unhosted_policy is UnhostedPolicy.RECURSIVE
            and self.recursive_fallback is not None
        ):
            resolved = self.recursive_fallback(question.qname, question.qtype)
            if resolved is None:
                return query.make_response(rcode=Rcode.SERVFAIL)
            response = query.make_response(
                rcode=resolved.header.rcode, recursion_available=True
            )
            response.answers = list(resolved.answers)
            return response
        return query.make_response(rcode=Rcode.REFUSED)

    def _answer_from_zone(self, query: Message, zone: Zone) -> Message:
        question = query.questions[0]
        response = query.make_response(
            rcode=Rcode.NOERROR, authoritative=True
        )
        qname = question.qname
        chain = 0
        while True:
            result = zone.lookup(qname, question.qtype)
            if result.status is LookupStatus.SUCCESS:
                response.answers.extend(result.records)
                return response
            if result.status is LookupStatus.CNAME:
                response.answers.extend(result.records)
                chain += 1
                if chain > MAX_CNAME_CHAIN:
                    return query.make_response(rcode=Rcode.SERVFAIL)
                assert result.cname_target is not None
                if not result.cname_target.is_subdomain_of(zone.origin):
                    # Out-of-zone target: the resolver must chase it.
                    return response
                qname = result.cname_target
                continue
            if result.status is LookupStatus.DELEGATION:
                referral = query.make_response(rcode=Rcode.NOERROR)
                referral.answers = list(response.answers)
                referral.authorities.extend(result.records)
                self._add_glue(referral, zone, result.records)
                return referral
            if result.status is LookupStatus.NODATA:
                self._add_soa(response, zone)
                return response
            # NXDOMAIN — but a CNAME already answered means NOERROR.
            if response.answers:
                return response
            nx = query.make_response(rcode=Rcode.NXDOMAIN, authoritative=True)
            self._add_soa(nx, zone)
            return nx

    def _add_soa(self, response: Message, zone: Zone) -> None:
        for record in zone.rrset(zone.origin, RRType.SOA):
            response.authorities.append(record)

    def _add_glue(
        self,
        response: Message,
        zone: Zone,
        ns_records: Tuple[ResourceRecord, ...],
    ) -> None:
        for ns_record in ns_records:
            rdata = ns_record.rdata
            if not isinstance(rdata, NS):
                continue
            if not rdata.target.is_subdomain_of(zone.origin):
                continue
            for glue in zone.rrset(rdata.target, RRType.A):
                response.additionals.append(glue)
