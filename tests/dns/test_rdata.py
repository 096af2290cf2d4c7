"""Tests for repro.dns.rdata.

A, AAAA and TXT carry their own opaque wire codec; the name-bearing types
(NS, CNAME, PTR, SOA, MX) are encoded by :mod:`repro.dns.wire`, so their
wire cases go through whole messages.
"""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.dns.message import Header, Message, ResourceRecord
from repro.dns.name import name
from repro.dns.rdata import (
    A,
    AAAA,
    CNAME,
    MX,
    NS,
    PTR,
    RDATA_CLASSES,
    RdataError,
    RRType,
    SOA,
    TXT,
    rdata_from_text,
)
from repro.dns.wire import WireError, decode_message, encode_message


def message_roundtrip(rdata):
    """``rdata`` as the one answer of a response, encoded and decoded."""
    response = Message.make_query("example.com", rdata.rrtype).make_response()
    response.answers.append(ResourceRecord(name("example.com"), rdata))
    return decode_message(encode_message(response)).answers[0].rdata


def answer_with_raw_rdata(rrtype, rdata, owner=b"\x00", rdlength=None):
    """A response whose one answer carries ``rdata`` bytes verbatim.

    The owner name starts right after the header, at offset 12.
    """
    header = struct.pack("!HHHHHH", 1, 0x8000, 0, 1, 0, 0)
    if rdlength is None:
        rdlength = len(rdata)
    record = owner + struct.pack("!HHIH", rrtype, 1, 300, rdlength)
    return header + record + rdata


class TestA:
    def test_roundtrip_wire(self):
        record = A("192.0.2.1")
        assert A.from_wire(record.to_wire()) == record

    def test_text(self):
        assert A.from_text(" 10.0.0.1 ").to_text() == "10.0.0.1"

    def test_invalid_address(self):
        with pytest.raises(RdataError):
            A("999.1.1.1")
        with pytest.raises(RdataError):
            A("not-an-ip")

    def test_wrong_wire_length(self):
        with pytest.raises(RdataError):
            A.from_wire(b"\x01\x02\x03")


class TestAAAA:
    def test_roundtrip(self):
        record = AAAA("2001:db8::1")
        assert AAAA.from_wire(record.to_wire()) == record

    def test_normalization(self):
        assert AAAA("2001:0db8:0000::0001").address == "2001:db8::1"

    def test_invalid(self):
        with pytest.raises(RdataError):
            AAAA("2001:::1")


class TestNameBearing:
    @pytest.mark.parametrize("cls", [NS, CNAME, PTR])
    def test_roundtrip(self, cls):
        record = cls(name("ns1.example.com"))
        assert message_roundtrip(record) == record

    def test_ns_text_has_trailing_dot(self):
        assert NS(name("ns1.example.com")).to_text() == "ns1.example.com."

    def test_from_text_strips_dot(self):
        assert NS.from_text("ns1.example.com.").target == name(
            "ns1.example.com"
        )


class TestSOA:
    def test_roundtrip_wire(self):
        record = SOA(
            mname=name("ns1.example.com"),
            rname=name("hostmaster.example.com"),
            serial=42,
            refresh=1,
            retry=2,
            expire=3,
            minimum=4,
        )
        assert message_roundtrip(record) == record

    def test_roundtrip_text(self):
        record = SOA(name("a.b"), name("c.d"), 7)
        assert SOA.from_text(record.to_text()) == record

    def test_bad_field_count(self):
        with pytest.raises(RdataError):
            SOA.from_text("ns1.example.com. hostmaster.example.com. 1 2 3")


class TestMX:
    def test_roundtrip(self):
        record = MX(10, name("mail.example.com"))
        assert message_roundtrip(record) == record

    def test_text(self):
        assert MX.from_text("10 mail.example.com.").preference == 10

    def test_preference_bounds(self):
        with pytest.raises(RdataError):
            MX(70000, name("mail.example.com"))
        with pytest.raises(RdataError):
            MX(-1, name("mail.example.com"))

    def test_truncated_wire(self):
        with pytest.raises(WireError):
            decode_message(answer_with_raw_rdata(RRType.MX, b"\x00"))


#: the name-bearing types, each built from one or two names
NAME_BEARING = {
    "NS": lambda target, other: NS(target),
    "CNAME": lambda target, other: CNAME(target),
    "PTR": lambda target, other: PTR(target),
    "MX": lambda target, other: MX(10, target),
    "SOA": lambda target, other: SOA(target, other, 42, 1, 2, 3, 4),
}

#: ``example.com`` in wire form, as an owner name at offset 12
EXAMPLE_COM = b"\x07example\x03com\x00"


def sample(kind):
    return NAME_BEARING[kind](
        name("ns1.example.com"), name("hostmaster.example.com")
    )


def raw_rdata(rdata, encode_name):
    """The RDATA of ``rdata`` with each embedded name written by
    ``encode_name``."""
    if isinstance(rdata, MX):
        return struct.pack("!H", rdata.preference) + encode_name(rdata.exchange)
    if isinstance(rdata, SOA):
        return (
            encode_name(rdata.mname)
            + encode_name(rdata.rname)
            + struct.pack(
                "!5I",
                rdata.serial,
                rdata.refresh,
                rdata.retry,
                rdata.expire,
                rdata.minimum,
            )
        )
    return encode_name(rdata.target)


def plain_labels(labels):
    return b"".join(bytes([len(label)]) + label.encode() for label in labels)


def uncompressed(target):
    return plain_labels(target.labels) + b"\x00"


def pointing_at_owner(target):
    """``target`` as its labels below ``example.com``, then a pointer to
    the owner ``example.com`` at offset 12."""
    assert target.labels[-2:] == ("example", "com")
    return plain_labels(target.labels[:-2]) + b"\xc0\x0c"


#: malformed embedded names, each with the defect it carries
BAD_NAMES = {
    "label-over-63": bytes([64]) + b"a" * 64 + b"\x00",
    "reserved-label-type": b"\x80\x00",
    "forward-pointer": b"\xc0\xff",
    "non-ascii-label": b"\x02\xc3\xa9\x00",
    "name-over-255": (bytes([63]) + b"a" * 63) * 5 + b"\x00",
}

_LABEL = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=20
)
_NAME = st.lists(_LABEL, min_size=0, max_size=4).map(
    lambda labels: name(".".join(labels))
)


@pytest.mark.parametrize("kind", sorted(NAME_BEARING))
class TestNameBearingWire:
    """NS, CNAME, PTR, MX and SOA RDATA through the message codec,
    the one codec these types have."""

    def test_uncompressed_names_decode(self, kind):
        record = sample(kind)
        wire = answer_with_raw_rdata(
            record.rrtype, raw_rdata(record, uncompressed), owner=EXAMPLE_COM
        )
        assert decode_message(wire).answers[0].rdata == record

    def test_names_pointing_into_the_owner_decode(self, kind):
        record = sample(kind)
        wire = answer_with_raw_rdata(
            record.rrtype,
            raw_rdata(record, pointing_at_owner),
            owner=EXAMPLE_COM,
        )
        assert decode_message(wire).answers[0].rdata == record

    def test_encoder_compresses_names_against_the_owner(self, kind):
        record = sample(kind)
        message = Message(
            header=Header(message_id=1, is_response=True),
            answers=[ResourceRecord(name("example.com"), record, 300)],
        )
        expected = answer_with_raw_rdata(
            record.rrtype,
            raw_rdata(record, pointing_at_owner),
            owner=EXAMPLE_COM,
        )
        assert encode_message(message)[12:] == expected[12:]

    def test_root_names_roundtrip(self, kind):
        record = NAME_BEARING[kind](name("."), name("."))
        assert message_roundtrip(record) == record

    def test_rdlength_past_the_rdata_is_rejected(self, kind):
        record = sample(kind)
        rdata = raw_rdata(record, uncompressed) + b"\x00"
        with pytest.raises(WireError, match="length mismatch"):
            decode_message(answer_with_raw_rdata(record.rrtype, rdata))

    def test_rdlength_short_of_the_rdata_is_rejected(self, kind):
        record = sample(kind)
        rdata = raw_rdata(record, uncompressed)
        wire = answer_with_raw_rdata(
            record.rrtype, rdata, rdlength=len(rdata) - 1
        )
        with pytest.raises(WireError):
            decode_message(wire)

    def test_rdata_running_past_the_message_is_rejected(self, kind):
        record = sample(kind)
        wire = answer_with_raw_rdata(
            record.rrtype, raw_rdata(record, uncompressed)
        )
        with pytest.raises(WireError, match="past end of message"):
            decode_message(wire[:-1])

    @pytest.mark.parametrize("defect", sorted(BAD_NAMES))
    def test_malformed_embedded_name_is_rejected(self, kind, defect):
        record = sample(kind)
        rdata = raw_rdata(record, lambda target: BAD_NAMES[defect])
        with pytest.raises(WireError):
            decode_message(answer_with_raw_rdata(record.rrtype, rdata))

    @given(target=_NAME, other=_NAME)
    def test_any_names_roundtrip(self, kind, target, other):
        record = NAME_BEARING[kind](target, other)
        assert message_roundtrip(record) == record


class TestTXT:
    def test_single_string_roundtrip(self):
        record = TXT(("v=spf1 -all",))
        assert TXT.from_wire(record.to_wire()) == record

    def test_multi_string_value_concatenates(self):
        record = TXT(("abc", "def"))
        assert record.value == "abcdef"

    def test_from_value_chunks_long_strings(self):
        long_value = "x" * 600
        record = TXT.from_value(long_value)
        assert len(record.strings) == 3
        assert all(len(chunk) <= 255 for chunk in record.strings)
        assert record.value == long_value

    def test_from_value_empty(self):
        assert TXT.from_value("").strings == ("",)

    def test_string_too_long_rejected(self):
        with pytest.raises(RdataError):
            TXT(("y" * 256,))

    def test_empty_strings_tuple_rejected(self):
        with pytest.raises(RdataError):
            TXT(())

    def test_text_quoting(self):
        record = TXT(('he said "hi"',))
        rendered = record.to_text()
        assert TXT.from_text(rendered) == record

    def test_from_text_multiple_quoted(self):
        record = TXT.from_text('"part one" "part two"')
        assert record.strings == ("part one", "part two")

    def test_from_text_unquoted_tokens(self):
        record = TXT.from_text("v=spf1 -all")
        assert record.strings == ("v=spf1", "-all")

    def test_unterminated_quote(self):
        with pytest.raises(RdataError):
            TXT.from_text('"unclosed')

    def test_truncated_wire(self):
        with pytest.raises(RdataError):
            TXT.from_wire(b"\x05ab")

    def test_empty_wire(self):
        with pytest.raises(RdataError):
            TXT.from_wire(b"")


class TestRegistry:
    def test_all_types_registered(self):
        for code in (
            RRType.A,
            RRType.AAAA,
            RRType.NS,
            RRType.CNAME,
            RRType.PTR,
            RRType.SOA,
            RRType.MX,
            RRType.TXT,
        ):
            assert code in RDATA_CLASSES

    def test_rdata_from_text_by_name(self):
        record = rdata_from_text("A", "192.0.2.7")
        assert isinstance(record, A)

    def test_rdata_from_text_by_code(self):
        record = rdata_from_text(RRType.TXT, '"hello"')
        assert isinstance(record, TXT)

    def test_unknown_type_rejected(self):
        with pytest.raises(RdataError):
            rdata_from_text(999, "data")

    def test_rrtype_names(self):
        assert RRType.to_text(RRType.A) == "A"
        assert RRType.to_text(999) == "TYPE999"
        assert RRType.from_text("TYPE999") == 999
        with pytest.raises(RdataError):
            RRType.from_text("BOGUS")


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_a_wire_roundtrip_any_address(value):
    raw = value.to_bytes(4, "big")
    record = A.from_wire(raw)
    assert record.to_wire() == raw


@given(
    st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            min_size=0,
            max_size=80,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_txt_wire_roundtrip(strings):
    record = TXT(tuple(strings))
    assert TXT.from_wire(record.to_wire()) == record
