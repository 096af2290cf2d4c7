"""Authoritative zone data and lookup semantics.

A :class:`Zone` stores RRsets under owner names relative to a zone origin
and answers lookups with RFC 1034 semantics: exact match, CNAME chasing
(within the zone), wildcard synthesis (RFC 4592, the simple cases), child
delegation referral, and NXDOMAIN/NODATA distinction.

Zones are what hosting-provider accounts create and what authoritative
servers load — an *undelegated record* is just a zone hosted on a provider
whose origin was never delegated to that provider's nameservers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

from .message import ResourceRecord
from .name import Name, name
from .rdata import CNAME, SOA, Rdata, RRType, rdata_from_text

WILDCARD_LABEL = "*"


class ZoneError(ValueError):
    """Raised for invalid zone contents or operations."""


class LookupStatus(enum.Enum):
    """Outcome class of a zone lookup."""

    SUCCESS = "success"
    NODATA = "nodata"
    NXDOMAIN = "nxdomain"
    DELEGATION = "delegation"
    CNAME = "cname"


@dataclass
class LookupResult:
    """Result of :meth:`Zone.lookup`.

    ``records`` carries the answer RRset (or the CNAME record / the
    delegation NS set, depending on ``status``).
    """

    status: LookupStatus
    records: Tuple[ResourceRecord, ...] = ()
    cname_target: Optional[Name] = None


@dataclass
class Zone:
    """The contents of one authoritative zone.

    Records are indexed by (owner, rrtype), each RRset one immutable
    tuple that :meth:`rrset` and :meth:`copy` share rather than copy.
    The zone origin must own a SOA record before the zone is served;
    :meth:`ensure_soa` installs a default one, which mirrors how hosting
    portals auto-create SOA/NS.
    """

    origin: Name
    _rrsets: Dict[Tuple[Name, int], Tuple[ResourceRecord, ...]] = field(
        default_factory=dict
    )
    #: bumped by :meth:`add`/:meth:`remove`; doubles as the generation
    #: stamp that invalidates compiled answers in
    #: :class:`~repro.dns.server.AuthoritativeServer`
    serial: int = 1

    def __init__(self, origin: Union[str, Name]):
        self.origin = name(origin)
        self._rrsets = {}
        self.serial = 1

    # -- mutation ---------------------------------------------------------

    def add(self, owner: Union[str, Name], rdata: Rdata) -> ResourceRecord:
        """Add one record at the default TTL; the owner must be at or
        under the origin.

        A relative owner (not under the origin) is interpreted as relative
        to the origin, zone-file style: ``add("www", A("1.2.3.4"))``.
        """
        record = ResourceRecord(self._absolute(owner), rdata)
        self.insert(record)
        return record

    def insert(self, record: ResourceRecord) -> None:
        """Add one whole record (its owner absolute, under the origin).

        Only a CNAME add scans the zone (for the owner's other types);
        every other add probes just its own key and the owner's CNAME
        key, so building a zone is linear in its records.
        """
        owner = record.owner
        rdata = record.rdata
        key = (owner, rdata.rrtype)
        if rdata.rrtype == RRType.CNAME:
            if self._rrsets.get(key):
                raise ZoneError(f"duplicate CNAME at {owner}")
            if any(
                existing == owner and rrtype != RRType.CNAME
                for existing, rrtype in self._rrsets
            ):
                raise ZoneError(
                    f"CNAME cannot coexist with other data at {owner}"
                )
        elif (owner, RRType.CNAME) in self._rrsets:
            raise ZoneError(f"{owner} already has a CNAME")
        bucket = self._rrsets.get(key, ())
        if record not in bucket:
            self._rrsets[key] = bucket + (record,)
            self.serial += 1

    def add_text(
        self,
        owner: Union[str, Name],
        rrtype: Union[int, str],
        text: str,
    ) -> ResourceRecord:
        """Add a record from presentation text (zone-file style)."""
        return self.add(owner, rdata_from_text(rrtype, text))

    def remove(
        self, owner: Union[str, Name], rrtype: Optional[int] = None
    ) -> int:
        """Remove records at ``owner`` (all types when ``rrtype`` is None).

        Returns the number of records removed.  A typed remove pops its
        one key; only an untyped remove scans the zone.
        """
        owner = self._absolute(owner)
        if rrtype is not None:
            removed = len(self._rrsets.pop((owner, rrtype), ()))
        else:
            owned = [key for key in self._rrsets if key[0] == owner]
            removed = sum(len(self._rrsets.pop(key)) for key in owned)
        if removed:
            self.serial += 1
        return removed

    def ensure_soa(self, primary: Union[str, Name]) -> None:
        """Install a default SOA at the origin if absent."""
        if self.rrset(self.origin, RRType.SOA):
            return
        self.add(
            self.origin,
            SOA(
                mname=name(primary),
                rname=self.origin.prepend("hostmaster"),
                serial=self.serial,
            ),
        )

    # -- accessors --------------------------------------------------------

    def _absolute(self, owner: Union[str, Name]) -> Name:
        owner = name(owner)
        if owner.is_subdomain_of(self.origin):
            return owner
        # Treat as relative to the origin.
        return self.origin.prepend(*owner.labels)

    def rrset(
        self, owner: Union[str, Name], rrtype: int
    ) -> Tuple[ResourceRecord, ...]:
        """The RRset at (owner, rrtype), possibly empty."""
        owner = self._absolute(owner)
        return self._rrsets.get((owner, rrtype), ())

    def records(self) -> Iterator[ResourceRecord]:
        """Every record in the zone."""
        for bucket in self._rrsets.values():
            yield from bucket

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._rrsets.values())

    def _owner_exists_or_has_descendants(self, owner: Name) -> bool:
        """True when ``owner`` is an empty non-terminal or has data."""
        return any(
            existing.is_subdomain_of(owner) for existing, _ in self._rrsets
        )

    def delegation_at(self, owner: Name) -> Tuple[ResourceRecord, ...]:
        """The NS RRset delegating ``owner``, when below the origin apex."""
        if owner == self.origin:
            return ()
        return self._rrsets.get((owner, RRType.NS), ())

    # -- lookup -----------------------------------------------------------

    def lookup(self, qname: Union[str, Name], qtype: int) -> LookupResult:
        """Resolve a query against this zone's data.

        Implements the authoritative-side algorithm: delegation cut check
        (closest enclosing NS set below the apex wins), exact-match answer,
        CNAME indirection, wildcard synthesis, and NODATA/NXDOMAIN.
        """
        qname = name(qname)
        if not qname.is_subdomain_of(self.origin):
            raise ZoneError(f"{qname} is out of zone {self.origin}")

        # Delegation: walk from just below the apex toward qname.
        depth = len(self.origin) + 1
        while depth <= len(qname):
            _, cut = qname.split(depth)
            if cut != self.origin:
                ns_set = self.delegation_at(cut)
                if ns_set and not (cut == qname and qtype == RRType.NS):
                    return LookupResult(LookupStatus.DELEGATION, ns_set)
            depth += 1

        # Exact match.
        exact = self.rrset(qname, qtype)
        if exact:
            return LookupResult(LookupStatus.SUCCESS, exact)
        cname = self.rrset(qname, RRType.CNAME)
        if cname and qtype != RRType.CNAME:
            target = cname[0].rdata
            assert isinstance(target, CNAME)
            return LookupResult(
                LookupStatus.CNAME, cname, cname_target=target.target
            )
        if self._owner_exists_or_has_descendants(qname):
            return LookupResult(LookupStatus.NODATA)

        # Wildcard synthesis: the closest encloser's "*" child.
        for ancestor in [*qname.ancestors()]:
            if not ancestor.is_subdomain_of(self.origin):
                break
            wildcard = ancestor.prepend(WILDCARD_LABEL)
            synth = self.rrset(wildcard, qtype)
            if synth:
                records = tuple(
                    ResourceRecord(qname, record.rdata, record.ttl)
                    for record in synth
                )
                return LookupResult(LookupStatus.SUCCESS, records)
            if self._owner_exists_or_has_descendants(ancestor):
                # Closest encloser found but no wildcard match.
                break
        return LookupResult(LookupStatus.NXDOMAIN)

    # -- convenience -------------------------------------------------------

    def copy(self) -> "Zone":
        """An independent copy sharing the immutable record tuples."""
        clone = Zone(self.origin)
        clone._rrsets = dict(self._rrsets)
        clone.serial = self.serial
        return clone


def zone_from_records(
    origin: Union[str, Name],
    entries: Iterable[Tuple[str, Union[int, str], str]],
) -> Zone:
    """Build a zone from (owner, rrtype, rdata-text) triples.

    A compact constructor used heavily by tests and scenario builders::

        zone_from_records("example.com", [
            ("example.com", "A", "192.0.2.1"),
            ("www", "CNAME", "example.com."),
        ])
    """
    zone = Zone(origin)
    for owner, rrtype, text in entries:
        zone.add_text(owner, rrtype, text)
    return zone
