"""DNS substrate: names, records, messages, wire format, zones, servers.

This package is a self-contained miniature DNS implementation sufficient
to simulate the hosting-provider ecosystem the paper measures.  Public
entry points:

* :func:`repro.dns.name.name` / :class:`~repro.dns.name.Name`
* RDATA classes in :mod:`repro.dns.rdata` (A, AAAA, NS, CNAME, SOA, MX, TXT)
* :class:`~repro.dns.message.Message` with wire round-trip in
  :mod:`repro.dns.wire`
* :class:`~repro.dns.zone.Zone` and :class:`~repro.dns.server.AuthoritativeServer`
* :class:`~repro.dns.resolver.RecursiveResolver` /
  :class:`~repro.dns.resolver.OpenResolver` /
  :class:`~repro.dns.resolver.StubResolver`
"""

from .name import Name, NameError_, ROOT, name
from .psl import DEFAULT_PSL, PublicSuffixList
from .rdata import (
    A,
    AAAA,
    CNAME,
    MX,
    NS,
    PTR,
    SOA,
    TXT,
    Rdata,
    RdataError,
    RRClass,
    RRType,
    rdata_from_text,
)
from .message import (
    Header,
    Message,
    Opcode,
    Question,
    Rcode,
    ResourceRecord,
    rrset,
)
from .wire import WireError, decode_message, encode_message, roundtrip
from .zone import LookupResult, LookupStatus, Zone, ZoneError, zone_from_records
from .server import AuthoritativeServer, UnhostedPolicy
from .resolver import (
    OpenResolver,
    RecursiveResolver,
    ResolutionError,
    StubResolver,
)

__all__ = [
    "A",
    "AAAA",
    "AuthoritativeServer",
    "CNAME",
    "DEFAULT_PSL",
    "Header",
    "LookupResult",
    "LookupStatus",
    "Message",
    "MX",
    "Name",
    "NameError_",
    "NS",
    "Opcode",
    "OpenResolver",
    "PTR",
    "PublicSuffixList",
    "Question",
    "Rcode",
    "Rdata",
    "RdataError",
    "RecursiveResolver",
    "ResolutionError",
    "ResourceRecord",
    "ROOT",
    "RRClass",
    "RRType",
    "SOA",
    "StubResolver",
    "TXT",
    "UnhostedPolicy",
    "WireError",
    "Zone",
    "ZoneError",
    "decode_message",
    "encode_message",
    "name",
    "rdata_from_text",
    "roundtrip",
    "rrset",
    "zone_from_records",
]
