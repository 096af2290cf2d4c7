"""Tests for repro.dns.wire: encoding, decoding, compression, malformed input."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.message import Message, Rcode, ResourceRecord, rrset
from repro.dns.name import name
from repro.dns.rdata import A, CNAME, MX, NS, RRType, SOA, TXT
from repro.dns.wire import WireError, decode_message, encode_message, roundtrip

from ..conftest import query_with_id


def _sample_response():
    query = query_with_id("www.example.com", RRType.A, 99)
    response = query.make_response(authoritative=True)
    response.answers.append(
        ResourceRecord(name("www.example.com"), CNAME(name("example.com")))
    )
    response.answers.extend(rrset("example.com", [A("192.0.2.1")]))
    response.authorities.append(
        ResourceRecord(name("example.com"), NS(name("ns1.example.com")))
    )
    response.additionals.append(
        ResourceRecord(name("ns1.example.com"), A("10.1.1.1"))
    )
    return response


class TestRoundtrip:
    def test_query(self):
        query = Message.make_query("example.com", RRType.TXT)
        decoded = roundtrip(query)
        assert decoded.question.qname == name("example.com")
        assert decoded.question.qtype == RRType.TXT
        assert decoded.header.message_id == query.header.message_id

    def test_full_response(self):
        response = _sample_response()
        decoded = roundtrip(response)
        assert decoded.header.authoritative
        assert len(decoded.answers) == 2
        assert len(decoded.authorities) == 1
        assert len(decoded.additionals) == 1
        assert decoded.answers[0].rdata == CNAME(name("example.com"))

    def test_soa_and_mx(self):
        query = Message.make_query("example.com", RRType.SOA)
        response = query.make_response()
        response.answers.append(
            ResourceRecord(
                name("example.com"),
                SOA(name("ns1.example.com"), name("h.example.com"), 3),
            )
        )
        response.answers.append(
            ResourceRecord(
                name("example.com"), MX(10, name("mail.example.com"))
            )
        )
        decoded = roundtrip(response)
        soa = decoded.answers[0].rdata
        assert isinstance(soa, SOA) and soa.serial == 3
        mx = decoded.answers[1].rdata
        assert isinstance(mx, MX) and mx.preference == 10

    def test_txt_with_multiple_strings(self):
        query = Message.make_query("example.com", RRType.TXT)
        response = query.make_response()
        response.answers.append(
            ResourceRecord(name("example.com"), TXT(("one", "two")))
        )
        decoded = roundtrip(response)
        assert decoded.answers[0].rdata == TXT(("one", "two"))

    def test_empty_message(self):
        decoded = roundtrip(Message())
        assert decoded.questions == []
        assert decoded.answers == []

    def test_case_is_lowered_by_compression_paths(self):
        # Compression matches case-insensitively; the decoded name must
        # still compare equal.
        query = Message.make_query("WwW.ExAmPlE.CoM", RRType.A)
        decoded = roundtrip(query)
        assert decoded.question.qname == name("www.example.com")

    def test_rcode_preserved(self):
        query = Message.make_query("nope.example.com", RRType.A)
        response = query.make_response(rcode=Rcode.NXDOMAIN)
        assert roundtrip(response).header.rcode == Rcode.NXDOMAIN


class TestCompression:
    def test_compression_shrinks_repeated_names(self):
        response = _sample_response()
        wire = encode_message(response)
        # The uncompressed rendering of all names would be much larger;
        # check a pointer byte (0xC0 high bits) is present.
        assert any(byte & 0xC0 == 0xC0 for byte in wire[12:])

    def test_compressed_names_decode_identically(self):
        response = _sample_response()
        decoded = decode_message(encode_message(response))
        assert decoded.answers[1].owner == name("example.com")
        assert decoded.authorities[0].rdata == NS(name("ns1.example.com"))

    def test_compression_across_sections(self):
        # additionals reference a name first seen in authorities.
        response = _sample_response()
        without_additional = Message(
            header=response.header,
            questions=response.questions,
            answers=response.answers,
            authorities=response.authorities,
        )
        base = len(encode_message(without_additional))
        full = len(encode_message(response))
        # ns1.example.com (17 octets uncompressed) should cost only a
        # 2-byte pointer as owner.
        assert full - base < 17 + 10


class TestMalformedInput:
    def test_short_header(self):
        with pytest.raises(WireError):
            decode_message(b"\x00\x01\x00")

    def test_truncated_question(self):
        query = Message.make_query("example.com", RRType.A)
        wire = encode_message(query)
        with pytest.raises(WireError):
            decode_message(wire[:-3])

    def test_trailing_garbage(self):
        wire = encode_message(Message.make_query("example.com", RRType.A))
        with pytest.raises(WireError):
            decode_message(wire + b"\x00")

    def test_forward_pointer_rejected(self):
        # Header + a name that points forward to itself.
        header = b"\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00"
        bad_name = b"\xc0\x0c"  # points at its own offset (12)
        with pytest.raises(WireError):
            decode_message(header + bad_name + b"\x00\x01\x00\x01")

    def test_reserved_label_type_rejected(self):
        header = b"\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00"
        with pytest.raises(WireError):
            decode_message(header + b"\x80x\x00" + b"\x00\x01\x00\x01")

    def test_name_running_past_end(self):
        header = b"\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00"
        with pytest.raises(WireError):
            decode_message(header + b"\x3fabc")

    def test_bad_rdlength(self):
        response = Message.make_query(
            "example.com", RRType.A
        ).make_response()
        response.answers.extend(rrset("example.com", [A("192.0.2.1")]))
        wire = bytearray(encode_message(response))
        # Corrupt the RDLENGTH of the answer (last 6 bytes are rdlength +
        # 4 address octets).
        wire[-6:-4] = b"\x00\xff"
        with pytest.raises(WireError):
            decode_message(bytes(wire))


_hostname = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8),
    min_size=1,
    max_size=4,
).map(lambda labels: name(".".join(labels)))


@given(
    _hostname,
    st.sampled_from([RRType.A, RRType.TXT, RRType.NS, RRType.MX]),
    st.integers(min_value=0, max_value=0xFFFF),
)
def test_any_query_roundtrips(qname, qtype, message_id):
    query = query_with_id(qname, qtype, message_id)
    decoded = roundtrip(query)
    assert decoded.question.qname == qname
    assert decoded.question.qtype == qtype
    assert decoded.header.message_id == message_id


@given(
    _hostname,
    st.lists(
        st.integers(min_value=0, max_value=0xFFFFFFFF).map(
            lambda value: A.from_wire(value.to_bytes(4, "big"))
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_answers_roundtrip(owner, rdatas):
    query = Message.make_query(owner, RRType.A)
    response = query.make_response()
    response.answers.extend(rrset(owner, rdatas))
    decoded = roundtrip(response)
    assert [record.rdata for record in decoded.answers] == rdatas
