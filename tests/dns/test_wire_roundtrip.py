"""Seeded property-style round-trip tests for the wire codec and the
scan-path caches.

Two invariants anchor the fast lane:

* ``decode(encode(m)) == m`` for any well-formed message — the codec
  loses nothing the simulator cares about;
* ``encode(decode(w)) == w`` for any wire produced by our encoder —
  compression is canonical, so an answer template (the decode of a
  wire) re-encodes to the bytes it stands for.

Plus the compiled-answer cache's staleness story: zone mutations bump
``Zone.serial``, zone map changes bump ``AuthoritativeServer.generation``,
and both are observed here.
"""

import random
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import ClassVar

import pytest

from repro.dns.message import Header, Message, Question, Rcode, ResourceRecord
from repro.dns.name import Name, name
from repro.dns.rdata import (
    AAAA,
    CNAME,
    MX,
    NS,
    PTR,
    SOA,
    TXT,
    A,
    Rdata,
    RRType,
)
from repro.dns.server import AuthoritativeServer, UnhostedPolicy
from repro.dns.wire import (
    WireCodecCache,
    WireError,
    _message_key,
    _with_message_id,
    decode_message,
    encode_message,
)
from repro.dns.zone import Zone
from repro.net.scanpath import ScanPathMetrics

SEED = 0x52F1C0DE
CASES = 60

_LABEL_POOL = ("www", "mail", "ns1", "cdn", "api", "x", "very-long-label")
_TLD_POOL = ("com", "net", "org", "io")


@dataclass(frozen=True, slots=True)
class _Opaque(Rdata):
    """RDATA of a type the decoder does not know: it encodes, but its
    wire fails to decode."""

    rrtype: ClassVar[int] = 99

    def to_wire(self) -> bytes:
        return b"\x00"


def _random_name(rng: random.Random) -> Name:
    """A random name with random per-label case, spelled consistently
    (the compression dictionary is case-insensitive, so one name must
    keep one spelling for exact round trips)."""
    depth = rng.randint(1, 4)
    labels = [rng.choice(_LABEL_POOL) for _ in range(depth)]
    labels.append(rng.choice(_TLD_POOL))
    cased = tuple(
        "".join(
            ch.upper() if rng.random() < 0.3 else ch for ch in label
        )
        for label in labels
    )
    return Name(cased)


def _random_rdata(rng: random.Random, names):
    pick = rng.randrange(8)
    other = rng.choice(names)
    if pick == 0:
        return A(f"192.0.2.{rng.randint(1, 254)}")
    if pick == 1:
        return AAAA(f"2001:db8::{rng.randint(1, 0xFFFF):x}")
    if pick == 2:
        return NS(other)
    if pick == 3:
        return CNAME(other)
    if pick == 4:
        return PTR(other)
    if pick == 5:
        return MX(rng.randint(0, 100), other)
    if pick == 6:
        return SOA(
            mname=other,
            rname=rng.choice(names),
            serial=rng.randint(1, 2**31),
            refresh=rng.randint(0, 86400),
            retry=rng.randint(0, 86400),
            expire=rng.randint(0, 86400),
            minimum=rng.randint(0, 3600),
        )
    return TXT.from_value(
        "".join(rng.choice("abcdefghij x=1;") for _ in range(rng.randint(0, 80)))
    )


def _random_message(rng: random.Random) -> Message:
    names = [_random_name(rng) for _ in range(rng.randint(1, 4))]
    header = Header(
        message_id=rng.randint(0, 0xFFFF),
        is_response=rng.random() < 0.7,
        authoritative=rng.random() < 0.5,
        truncated=rng.random() < 0.1,
        recursion_desired=rng.random() < 0.8,
        recursion_available=rng.random() < 0.3,
        rcode=rng.choice(
            (Rcode.NOERROR, Rcode.NXDOMAIN, Rcode.REFUSED, Rcode.SERVFAIL)
        ),
    )
    message = Message(header=header)
    for _ in range(rng.randint(0, 2)):
        message.questions.append(
            Question(
                rng.choice(names),
                rng.choice((RRType.A, RRType.TXT, RRType.MX, RRType.NS)),
            )
        )
    for section in (message.answers, message.authorities, message.additionals):
        for _ in range(rng.randint(0, 3)):
            section.append(
                ResourceRecord(
                    rng.choice(names),
                    _random_rdata(rng, names),
                    ttl=rng.randint(0, 86400),
                )
            )
    return message


class TestSeededRoundtrip:
    def test_decode_of_encode_is_identity(self):
        rng = random.Random(SEED)
        for case in range(CASES):
            message = _random_message(rng)
            decoded = decode_message(encode_message(message))
            assert decoded == message, f"case {case}: {message.summary()}"

    def test_encode_of_decode_is_identity_on_wire(self):
        """Our compression is canonical: re-encoding a decoded message
        reproduces the original bytes, which is what makes the decode
        cache (keyed on wire bytes) sound."""
        rng = random.Random(SEED ^ 0xFFFF)
        for case in range(CASES):
            wire = encode_message(_random_message(rng))
            assert encode_message(decode_message(wire)) == wire, f"case {case}"


class TestInternedNames:
    """Decoded names are shared per exact label tuple, spelling kept."""

    @staticmethod
    def _qname(text: str) -> Name:
        wire = encode_message(Message.make_query(text, RRType.A))
        return decode_message(wire).questions[0].qname

    def test_two_decodes_share_one_name(self):
        assert self._qname("www.example.com") is self._qname(
            "www.example.com"
        )

    def test_from_text_is_the_decoded_name(self):
        assert Name.from_text("Ex.COM") is self._qname("Ex.COM")
        assert Name.from_text("Ex.COM.") is self._qname("Ex.COM")

    def test_spellings_stay_distinct_and_encode_as_spelled(self):
        lower, upper = self._qname("ex.com"), self._qname("Ex.COM")
        assert lower == upper and lower is not upper
        wires = [
            encode_message(Message.make_query(decoded, RRType.A, message_id=1))
            for decoded in (lower, upper)
        ]
        assert b"\x02ex\x03com\x00" in wires[0]
        assert b"\x02Ex\x03COM\x00" in wires[1]

    def test_a_bad_label_fails_every_decode(self):
        wire = encode_message(Message.make_query("abc.example", RRType.A))
        bad = wire.replace(b"\x03abc", b"\x03a c")
        for _ in range(3):
            with pytest.raises(WireError):
                decode_message(bad)


class TestWireCodecCache:
    def _query(self, message_id=7, qname="www.example.com"):
        return Message.make_query(qname, RRType.A, message_id=message_id)

    def test_query_roundtrip_hit_after_store(self):
        metrics = ScanPathMetrics()
        cache = WireCodecCache(metrics)
        query = self._query()
        assert cache.query_hit(query) is None
        wire = encode_message(query)
        cache.query_store(query, wire)
        hit = cache.query_hit(self._query())
        assert hit is not None
        hit_wire, _key = hit
        assert hit_wire == wire
        assert metrics.query_misses == 1
        assert metrics.query_hits == 1

    def test_query_hit_is_id_agnostic_and_patches_wire(self):
        cache = WireCodecCache()
        query = self._query(message_id=7)
        cache.query_store(query, encode_message(query))
        other = self._query(message_id=4242)
        hit = cache.query_hit(other)
        assert hit is not None
        assert hit[0] == encode_message(other)

    def test_query_key_is_case_exact(self):
        cache = WireCodecCache()
        query = self._query(qname="www.example.com")
        cache.query_store(query, encode_message(query))
        # Name equality is case-insensitive but the wire preserves case,
        # so a re-spelled qname must not hit.
        assert cache.query_hit(self._query(qname="WWW.example.com")) is None

    def _answer(self, message_id=9, address="192.0.2.1"):
        response = self._query(message_id=message_id).make_response()
        response.answers.append(
            ResourceRecord(name("www.example.com"), A(address))
        )
        return response

    def test_encode_cache_is_id_agnostic_and_exact(self):
        metrics = ScanPathMetrics()
        cache = WireCodecCache(metrics)
        response = self._answer()
        first, template = cache.encode(response)
        assert first == encode_message(response)
        patched = replace(
            response, header=replace(response.header, message_id=77)
        )
        wire, again = cache.encode(patched)
        assert wire == encode_message(patched)
        assert again is template
        assert metrics.encode_misses == 1
        assert metrics.encode_hits == 1
        # a different answer body must miss, not collide
        other = self._answer(address="192.0.2.2")
        assert cache.encode(other)[0] == encode_message(other)
        assert metrics.encode_misses == 2

    def test_template_is_the_decode_sharing_the_original_records(self):
        cache = WireCodecCache()
        response = self._answer()
        wire, template = cache.encode(response)
        decoded = decode_message(wire)

        def same_as_decode():
            # a template holds its sections as tuples, a decode as lists
            return template.header == decoded.header and [
                tuple(section) for section in _sections(decoded)
            ] == list(_sections(template))

        assert all(type(section) is tuple for section in _sections(template))
        assert same_as_decode()
        assert template.answers[0] is response.answers[0]
        # the producer mutating its lists afterwards leaves it alone
        response.answers.clear()
        assert same_as_decode()

    def test_case_folded_owner_makes_the_decode_the_template(self):
        # compression points the second owner at the first spelling
        response = self._query(qname="WWW.example.com").make_response()
        for owner, address in (
            ("WWW.example.com", "192.0.2.1"),
            ("www.example.com", "192.0.2.2"),
        ):
            response.answers.append(ResourceRecord(name(owner), A(address)))
        wire, template = WireCodecCache().encode(response)
        decoded = decode_message(wire)
        assert [r.owner.labels for r in template.answers] == [
            r.owner.labels for r in decoded.answers
        ]
        assert template.answers[1].owner.labels[0] == "WWW"

    def test_decode_is_uncached_and_failures_are_not_cached(self):
        cache = WireCodecCache()
        wire = encode_message(self._query())
        first = cache.decode(wire)
        assert first == decode_message(wire)
        assert cache.decode(wire) is not first
        with pytest.raises(WireError):
            cache.decode(b"\x00\x01")

    def test_undecodable_answers_are_not_cached(self):
        metrics = ScanPathMetrics()
        cache = WireCodecCache(metrics)
        response = self._answer()
        response.answers.append(
            ResourceRecord(name("www.example.com"), _Opaque())
        )
        for misses in (1, 2):
            wire, template = cache.encode(response)
            assert template is None
            assert wire == encode_message(response)
            assert metrics.encode_misses == misses
        assert cache._answer_cache == {}

    def test_encode_errors_propagate_uncached(self):
        cache = WireCodecCache()
        response = self._answer()
        response.answers.append(
            ResourceRecord(name("www.example.com"), TXT(("x" * 255,) * 300))
        )
        for _ in range(2):
            with pytest.raises(WireError, match="RDATA too long"):
                cache.encode(response)
        assert cache._answer_cache == {}

    def test_messages_with_records_are_not_query_cached(self):
        cache = WireCodecCache()
        response = self._query().make_response()
        response.answers.append(
            ResourceRecord(name("www.example.com"), A("192.0.2.1"))
        )
        cache.query_store(response, encode_message(response))
        assert cache.query_hit(response) is None

    def test_fifo_bound_evicts_oldest(self):
        cache = WireCodecCache(max_entries=2)
        queries = [self._query(message_id=i, qname=f"q{i}.example.com")
                   for i in range(3)]
        for query in queries:
            cache.query_store(query, encode_message(query))
        assert cache.query_hit(queries[0]) is None
        assert cache.query_hit(queries[2]) is not None



class TestFlatAnswerKey:
    """The answer cache's key is one flat tuple; its section counts
    come first, so no two distinct answers share an entry."""

    @staticmethod
    def _response(**sections):
        header = Header(message_id=3, is_response=True, authoritative=True)
        return Message(header=header, **sections)

    def _assert_distinct_entries(self, *messages):
        wires = [encode_message(message) for message in messages]
        assert len(set(wires)) == len(messages)
        assert len({_message_key(m) for m in messages}) == len(messages)
        cache = WireCodecCache()
        for _ in range(2):  # misses, then hits
            for message, wire in zip(messages, wires):
                got, template = cache.encode(message)
                assert got == wire
                served = _with_message_id(template, message.header.message_id)
                assert encode_message(served) == wire
        assert len(cache._answer_cache) == len(messages)

    def test_a_record_moved_between_sections(self):
        one = ResourceRecord(name("www.example.com"), A("192.0.2.1"))
        two = ResourceRecord(name("www.example.com"), A("192.0.2.2"))
        self._assert_distinct_entries(
            self._response(answers=[one, two]),
            self._response(answers=[one], authorities=[two]),
            self._response(authorities=[one, two]),
            self._response(authorities=[one], additionals=[two]),
            self._response(answers=[two], additionals=[one]),
        )

    def test_question_and_record_boundaries(self):
        question = Question(name("www.example.com"), RRType.A)
        record = ResourceRecord(name("www.example.com"), A("192.0.2.1"))
        self._assert_distinct_entries(
            self._response(questions=[question]),
            self._response(questions=[question, question]),
            self._response(answers=[record]),
            self._response(questions=[question], answers=[record]),
            self._response(questions=[question, question], answers=[record]),
        )

    def test_equal_labels_in_name_bearing_rdata(self):
        owner = name("example.com")
        target = name("ns1.example.com")
        soa = SOA(
            mname=target, rname=target, serial=1, refresh=2, retry=3,
            expire=4, minimum=5,
        )  # fmt: skip
        self._assert_distinct_entries(
            *(
                self._response(authorities=[ResourceRecord(owner, rdata)])
                for rdata in (
                    NS(target),
                    CNAME(target),
                    PTR(target),
                    MX(0, target),
                    soa,
                )
            )
        )

    def test_equal_keys_only_for_equal_wires(self):
        rng = random.Random(SEED ^ 0x0F1A7)
        by_key = {}
        for _ in range(CASES * 4):
            message = _random_message(rng)
            message.header = replace(message.header, message_id=0)
            wire = encode_message(message)
            assert by_key.setdefault(_message_key(message), wire) == wire
            # every record moved one section on is another answer
            sections = list(_sections(message))[1:]
            for index, section in enumerate(sections):
                if not section:
                    continue
                moved = [list(part) for part in sections]
                moved[(index + 1) % 3].append(moved[index].pop())
                other = Message(
                    message.header, list(message.questions), *moved
                )
                assert _message_key(other) != _message_key(message)

    def test_a_served_clone_cannot_mutate_its_template(self):
        record = ResourceRecord(name("www.example.com"), A("192.0.2.1"))
        question = Question(name("www.example.com"), RRType.A)
        response = self._response(questions=[question], answers=[record])
        cache = WireCodecCache()
        wire, template = cache.encode(response)
        served = _with_message_id(template, 99)
        served.answers.append(record)
        served.questions.clear()
        served.header = replace(served.header, rcode=Rcode.SERVFAIL)
        assert template.answers == (record,)
        assert template.questions == (question,)
        assert cache.encode(response) == (wire, template)
        again = _with_message_id(template, 3)
        assert encode_message(again) == wire


def _sections(message):
    return (
        message.questions,
        message.answers,
        message.authorities,
        message.additionals,
    )


def _fast_network():
    return SimpleNamespace(scan_cache_enabled=True, scanpath=ScanPathMetrics())


class TestCompiledAnswerCache:
    def _server(self):
        server = AuthoritativeServer("ns1.prov.example")
        zone = Zone("victim.example")
        zone.ensure_soa("ns1.prov.example")
        zone.add("www", A("192.0.2.10"))
        server.load_zone(zone)
        return server, zone

    def test_hit_counts_and_identical_answers(self):
        server, _ = self._server()
        network = _fast_network()
        query = Message.make_query("www.victim.example", RRType.A, message_id=5)
        first = server.handle_dns_query(query, "198.51.100.1", network)
        second = server.handle_dns_query(query, "198.51.100.1", network)
        assert network.scanpath.compiled_misses == 1
        assert network.scanpath.compiled_hits == 1
        assert first == second
        assert encode_message(second) == second.compiled_wire

    def test_a_served_clone_cannot_mutate_its_template(self):
        server, _ = self._server()
        network = _fast_network()
        query = Message.make_query("www.victim.example", RRType.A, message_id=5)
        first = server.handle_dns_query(query, "198.51.100.1", network)
        wire = first.compiled_wire
        first.answers.clear()
        first.questions.append(Question(name("x.example"), RRType.TXT))
        second = server.handle_dns_query(query, "198.51.100.1", network)
        assert network.scanpath.compiled_hits == 1
        assert second.answer_rdatas() == [A("192.0.2.10")]
        assert second.compiled_wire == wire
        assert encode_message(second) == wire
        (entry,) = server._compiled.values()
        assert type(entry.template.answers) is tuple

    def test_message_id_patch_matches_full_encode(self):
        server, _ = self._server()
        network = _fast_network()
        server.handle_dns_query(
            Message.make_query("www.victim.example", RRType.A, message_id=5),
            "198.51.100.1",
            network,
        )
        patched = server.handle_dns_query(
            Message.make_query("www.victim.example", RRType.A, message_id=900),
            "198.51.100.1",
            network,
        )
        assert patched.header.message_id == 900
        assert patched.compiled_wire == encode_message(patched)
        assert network.scanpath.compiled_hits == 1

    def test_zone_mutation_invalidates_via_serial(self):
        server, zone = self._server()
        network = _fast_network()
        query = Message.make_query("www.victim.example", RRType.A, message_id=5)
        before = server.handle_dns_query(query, "198.51.100.1", network)
        assert before.answer_rdatas() == [A("192.0.2.10")]
        serial_before = zone.serial
        zone.remove("www", RRType.A)
        zone.add("www", A("203.0.113.99"))
        assert zone.serial > serial_before
        after = server.handle_dns_query(query, "198.51.100.1", network)
        assert after.answer_rdatas() == [A("203.0.113.99")]
        assert network.scanpath.compiled_misses == 2

    def test_zone_map_changes_bump_generation_and_flush(self):
        server, _ = self._server()
        network = _fast_network()
        query = Message.make_query("www.victim.example", RRType.A, message_id=5)
        server.handle_dns_query(query, "198.51.100.1", network)
        assert server._compiled
        generation = server.generation
        server.unload_zone("victim.example")
        assert server.generation == generation + 1
        assert not server._compiled
        refused = server.handle_dns_query(query, "198.51.100.1", network)
        assert refused.rcode == Rcode.REFUSED

    def test_policy_change_invalidates_unhosted_answers(self):
        server, _ = self._server()
        network = _fast_network()
        query = Message.make_query("other.example", RRType.A, message_id=5)
        refused = server.handle_dns_query(query, "198.51.100.1", network)
        assert refused.rcode == Rcode.REFUSED
        server.unhosted_policy = UnhostedPolicy.PROTECTIVE
        server.protective_records = [(RRType.A, A("198.18.0.1"))]
        protective = server.handle_dns_query(query, "198.51.100.1", network)
        assert protective.rcode == Rcode.NOERROR
        assert protective.answer_rdatas() == [A("198.18.0.1")]

    def test_naive_and_compiled_answers_encode_identically(self):
        rng = random.Random(SEED)
        server, _ = self._server()
        fast = _fast_network()
        naive = SimpleNamespace(scan_cache_enabled=False)
        for _ in range(40):
            qname = rng.choice(
                ("www.victim.example", "victim.example",
                 "miss.victim.example", "unrelated.example")
            )
            qtype = rng.choice((RRType.A, RRType.TXT, RRType.SOA))
            mid = rng.randint(0, 0xFFFF)
            query = Message.make_query(qname, qtype, message_id=mid)
            fast_answer = server.handle_dns_query(query, "198.51.100.1", fast)
            naive_answer = server.handle_dns_query(query, "198.51.100.1", naive)
            assert encode_message(fast_answer) == encode_message(naive_answer)
