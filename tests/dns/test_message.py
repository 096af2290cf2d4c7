"""Tests for repro.dns.message."""

import pytest

from repro.dns.message import (
    Header,
    Message,
    Opcode,
    Question,
    Rcode,
    ResourceRecord,
    rrset,
)
from repro.dns.name import name
from repro.dns.rdata import A, NS, RRType, TXT


class TestHeader:
    def test_flags_roundtrip_default(self):
        header = Header(message_id=7)
        decoded = Header.from_flags_word(7, header.flags_word())
        assert decoded == header

    def test_flags_roundtrip_all_set(self):
        header = Header(
            message_id=1,
            is_response=True,
            opcode=Opcode.STATUS,
            authoritative=True,
            truncated=True,
            recursion_desired=True,
            recursion_available=True,
            rcode=Rcode.REFUSED,
        )
        decoded = Header.from_flags_word(1, header.flags_word())
        assert decoded == header

    def test_qr_bit_position(self):
        assert Header(is_response=True).flags_word() & 0x8000

    def test_rcode_low_nibble(self):
        assert Header(rcode=Rcode.NXDOMAIN).flags_word() & 0xF == 3


class TestMakeQuery:
    def test_basic(self):
        query = Message.make_query("example.com", RRType.A)
        assert query.question.qname == name("example.com")
        assert query.question.qtype == RRType.A
        assert not query.header.is_response
        assert query.header.recursion_desired

    def test_no_recursion(self):
        query = Message.make_query(
            "example.com", RRType.A, recursion_desired=False
        )
        assert not query.header.recursion_desired

    def test_ids_increment(self):
        first = Message.make_query("a.com", RRType.A)
        second = Message.make_query("a.com", RRType.A)
        assert first.header.message_id != second.header.message_id

    def test_explicit_id(self):
        query = Message.make_query("a.com", RRType.A, message_id=1234)
        assert query.header.message_id == 1234


class TestMakeResponse:
    def test_echoes_id_and_question(self):
        query = Message.make_query("example.com", RRType.TXT)
        response = query.make_response(rcode=Rcode.NXDOMAIN)
        assert response.header.message_id == query.header.message_id
        assert response.header.is_response
        assert response.header.rcode == Rcode.NXDOMAIN
        assert response.questions == query.questions

    def test_authoritative_flag(self):
        query = Message.make_query("example.com", RRType.A)
        response = query.make_response(authoritative=True)
        assert response.header.authoritative


class TestAccessors:
    def _response_with_answers(self):
        query = Message.make_query("example.com", RRType.A)
        response = query.make_response()
        response.answers.extend(
            rrset("example.com", [A("192.0.2.1"), A("192.0.2.2")])
        )
        response.answers.append(
            ResourceRecord(name("example.com"), TXT(("x",)))
        )
        return response

    def test_question_requires_exactly_one(self):
        with pytest.raises(ValueError):
            Message().question

    def test_referral_detection(self):
        query = Message.make_query("www.example.com", RRType.A)
        referral = query.make_response()
        referral.authorities.append(
            ResourceRecord(name("example.com"), NS(name("ns1.example.com")))
        )
        referral.additionals.append(
            ResourceRecord(name("ns1.example.com"), A("10.0.0.1"))
        )
        assert referral.is_referral()
        assert referral.referral_targets() == [name("ns1.example.com")]

    def test_answered_response_is_not_referral(self):
        response = self._response_with_answers()
        assert not response.is_referral()

    def test_summary_mentions_rcode(self):
        query = Message.make_query("example.com", RRType.A)
        assert "NOERROR" in query.make_response().summary()
        assert "example.com" in query.summary()


class TestRrsetHelper:
    def test_shared_owner_and_ttl(self):
        records = rrset("a.com", [A("1.1.1.1"), A("2.2.2.2")], ttl=60)
        assert all(record.owner == name("a.com") for record in records)
        assert all(record.ttl == 60 for record in records)

    def test_record_text(self):
        (record,) = rrset("a.com", [A("1.1.1.1")], ttl=60)
        assert record.to_text() == "a.com. 60 IN A 1.1.1.1"


class TestQuestion:
    def test_str(self):
        question = Question(name("example.com"), RRType.TXT)
        assert str(question) == "example.com. IN TXT"
