"""What the transport hands back is the decode of what it sent.

The fast lane never decodes an encoded answer: the wire codec keeps one
template per answer (a clone of the first original whose decode matches
it exactly, else the decode itself) and the transport returns a clone of
it.  These properties hold that shortcut to ``decode_message(wire)`` —
header and exact-case section keys — for random responses: owner and
target names that differ only in case (compression folds those into
the first spelling), TXT/MX/SOA bodies, both transports, message ids
that change between exchanges, and a producer that mutates the section
lists of the responses it already returned.  A second property drives
authoritative servers' compiled answers over random zones.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.dns.message import Message, Rcode, ResourceRecord
from repro.dns.name import Name
from repro.dns.rdata import AAAA, CNAME, MX, NS, PTR, SOA, TXT, A, RRType
from repro.dns.server import AuthoritativeServer
from repro.dns.wire import _message_key, decode_message, encode_message
from repro.dns.zone import Zone, ZoneError
from repro.net.network import MAX_UDP_PAYLOAD, SimulatedInternet

SERVER_IP = "10.0.0.1"

_LABELS = ("ns", "mail", "www", "a", "cdn")


@st.composite
def _names(draw, labels=_LABELS, tld="example"):
    """A name from a small pool, each label in a random case, so two
    draws often spell one name two ways."""
    chosen = draw(st.lists(st.sampled_from(labels), min_size=0, max_size=2))
    cased = [
        draw(st.sampled_from((label, label.upper(), label.title())))
        for label in (*chosen, tld)
    ]
    return Name(tuple(cased))


_rdata = st.one_of(
    st.builds(A, st.sampled_from(("192.0.2.1", "198.51.100.7"))),
    st.builds(AAAA, st.sampled_from(("2001:db8::1", "2001:db8::ff"))),
    st.builds(NS, _names()),
    st.builds(CNAME, _names()),
    st.builds(PTR, _names()),
    st.builds(MX, st.integers(0, 0xFFFF), _names()),
    st.builds(
        TXT,
        st.lists(
            st.text("abcXYZ =;:-", min_size=0, max_size=120),
            min_size=1,
            max_size=3,
        ).map(tuple),
    ),
    st.builds(
        SOA,
        _names(),
        _names(),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
    ),
)

_record = st.builds(
    ResourceRecord, _names(), _rdata, st.integers(0, 2**31 - 1)
)
_section = st.lists(_record, max_size=4)


@st.composite
def _bodies(draw):
    """The parts of a response that do not depend on the query."""
    return (
        draw(st.sampled_from((Rcode.NOERROR, Rcode.NXDOMAIN, Rcode.REFUSED))),
        draw(st.booleans()),
        draw(st.booleans()),
        draw(_section),
        draw(_section),
        draw(_section),
    )


def _respond(query, body):
    rcode, authoritative, recursion_available, *sections = body
    response = query.make_response(
        rcode=rcode,
        authoritative=authoritative,
        recursion_available=recursion_available,
    )
    response.answers, response.authorities, response.additionals = (
        list(section) for section in sections
    )
    return response


class _Producer:
    """A DNS service answering from canned bodies, which afterwards
    rewrites the section lists of every response it already returned."""

    def __init__(self):
        self.body = None
        self.sent = []

    def handle_dns_query(self, query, src_ip, network, query_key=None):
        for response in self.sent:
            response.answers.reverse()
            response.authorities.clear()
            response.additionals.append(
                ResourceRecord(Name(("junk", "example")), A("203.0.113.9"))
            )
        response = _respond(query, self.body)
        self.sent.append(response)
        return response


def _expected(response, transport):
    """The wire the naive path sends for ``response``, decoded."""
    wire = encode_message(response)
    if transport == "udp" and len(wire) > MAX_UDP_PAYLOAD:
        wire = encode_message(
            Message(
                header=replace(response.header, truncated=True),
                questions=list(response.questions),
            )
        )
    return decode_message(wire)


def _same(got, expected):
    assert got.header == expected.header
    assert _message_key(got) == _message_key(expected)


@given(
    st.lists(
        st.tuples(
            _bodies(),
            _names(),
            st.sampled_from((RRType.A, RRType.TXT, RRType.MX, RRType.SOA)),
            st.sampled_from(("udp", "tcp")),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 0xFFFF),
)
@settings(max_examples=150, deadline=None)
def test_transact_returns_the_decode_of_the_wire(exchanges, first_id):
    network = SimulatedInternet()
    producer = _Producer()
    network.register_dns_host(SERVER_IP, producer)
    returned = []
    # every exchange twice under fresh ids: the second is a cache hit
    for step, (body, qname, qtype, transport) in enumerate(
        exchanges + exchanges
    ):
        producer.body = body
        query = Message.make_query(
            qname, qtype, message_id=(first_id + 7919 * step) & 0xFFFF
        )
        got = network.query_dns("192.0.2.53", SERVER_IP, query, transport)
        _same(got, _expected(_respond(query, body), transport))
        returned.append(got)
        # callers own what they get: mutating it corrupts nothing
        for message in returned:
            message.answers.clear()
    assert network.stats["wire_errors"] == 0


@given(
    st.lists(st.tuples(_names(tld="zone"), _rdata), min_size=1, max_size=8),
    st.lists(
        st.tuples(
            _names(tld="zone"),
            st.sampled_from(
                (RRType.A, RRType.CNAME, RRType.TXT, RRType.MX, RRType.NS)
            ),
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=100, deadline=None)
def test_compiled_answers_are_the_decode_of_the_wire(records, questions):
    """An authoritative server's answers, compiled on first sight and
    served from the compiled cache after, against the naive lane."""
    fast, naive = SimulatedInternet(), SimulatedInternet()
    naive.scan_cache_enabled = False
    for network in (fast, naive):
        zone = Zone("zone")
        zone.ensure_soa("ns.zone")
        for owner, rdata in records:
            try:
                zone.add(owner, rdata)
            except ZoneError:
                pass  # a CNAME conflict: the zone refuses it
        server = AuthoritativeServer("ns.zone")
        server.load_zone(zone)
        network.register_dns_host(SERVER_IP, server)
    for step, (qname, qtype) in enumerate(questions + questions):
        query = Message.make_query(qname, qtype, message_id=step)
        got = fast.query_dns("192.0.2.53", SERVER_IP, query, "tcp")
        _same(got, naive.query_dns("192.0.2.53", SERVER_IP, query, "tcp"))
    assert fast.scanpath.compiled_hits >= len(questions)
