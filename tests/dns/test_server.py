"""Tests for repro.dns.server: authoritative answering behaviours."""

import pytest

from repro.dns.message import Message, Rcode
from repro.dns.name import name
from repro.dns.rdata import A, RRType, TXT
from repro.dns.server import (
    AuthoritativeServer,
    UnhostedPolicy,
)
from repro.dns.zone import Zone, zone_from_records
from repro.net.network import SimulatedInternet

from ..conftest import query_with_id


def protective_server(hostname, warning_ip):
    server = AuthoritativeServer(hostname)
    server.unhosted_policy = UnhostedPolicy.PROTECTIVE
    server.protective_records = [
        (RRType.A, A(warning_ip)),
        (RRType.TXT, TXT.from_value("this domain is not hosted here")),
    ]
    return server


def recursive_server(fallback):
    server = AuthoritativeServer("ns1.mis.net")
    server.unhosted_policy = UnhostedPolicy.RECURSIVE
    server.recursive_fallback = fallback
    return server


@pytest.fixture
def server():
    srv = AuthoritativeServer("ns1.host.net")
    zone = zone_from_records(
        "example.com",
        [
            ("example.com", "A", "192.0.2.1"),
            ("www", "CNAME", "example.com."),
            ("ext", "CNAME", "target.other.net."),
            ("loop1", "CNAME", "loop2.example.com."),
            ("loop2", "CNAME", "loop1.example.com."),
            ("child.example.com", "NS", "ns1.child.example.com."),
            ("ns1.child.example.com", "A", "10.5.5.5"),
        ],
    )
    zone.ensure_soa("ns1.host.net")
    srv.load_zone(zone)
    return srv


def ask(server, qname, qtype=RRType.A):
    query = Message.make_query(qname, qtype, recursion_desired=False)
    return server.handle_dns_query(query, "198.51.100.1", None)


class TestAuthoritativeAnswers:
    def test_positive_answer(self, server):
        response = ask(server, "example.com")
        assert response.header.rcode == Rcode.NOERROR
        assert response.header.authoritative
        assert response.answers[0].rdata == A("192.0.2.1")

    def test_cname_chain_followed_in_zone(self, server):
        response = ask(server, "www.example.com")
        rdatas = [record.rdata for record in response.answers]
        assert A("192.0.2.1") in rdatas
        assert len(response.answers) == 2  # CNAME + A

    def test_out_of_zone_cname_returned_unchased(self, server):
        response = ask(server, "ext.example.com")
        assert len(response.answers) == 1
        assert response.header.rcode == Rcode.NOERROR

    def test_cname_loop_servfail(self, server):
        response = ask(server, "loop1.example.com")
        assert response.header.rcode == Rcode.SERVFAIL

    def test_nxdomain_with_soa(self, server):
        response = ask(server, "missing.example.com")
        assert response.header.rcode == Rcode.NXDOMAIN
        assert any(
            record.rrtype == RRType.SOA for record in response.authorities
        )

    def test_nodata_with_soa(self, server):
        response = ask(server, "example.com", RRType.TXT)
        assert response.header.rcode == Rcode.NOERROR
        assert response.answers == []
        assert any(
            record.rrtype == RRType.SOA for record in response.authorities
        )

    def test_referral_with_glue(self, server):
        response = ask(server, "deep.child.example.com")
        assert response.is_referral()
        assert [
            (record.owner, record.rdata) for record in response.additionals
        ] == [(name("ns1.child.example.com"), A("10.5.5.5"))]

    def test_no_question_formerr(self, server):
        response = server.handle_dns_query(Message(), "1.2.3.4", None)
        assert response.header.rcode == Rcode.FORMERR

    def test_query_count_increments(self, server):
        before = server.query_count
        ask(server, "example.com")
        assert server.query_count == before + 1


class TestUnhostedBehaviour:
    def test_refused_by_default(self, server):
        response = ask(server, "unhosted.net")
        assert response.header.rcode == Rcode.REFUSED

    def test_refused_pool_is_the_one_cache_of_a_refusal(self):
        """The network-wide pool serves every server's REFUSED for a
        question; the codec's answer cache keeps no second copy."""
        network = SimulatedInternet()
        for address in ("192.0.2.1", "192.0.2.2"):
            network.register_dns_host(
                address, AuthoritativeServer("ns1.host.net")
            )
            query = query_with_id("unhosted.net", RRType.A, 7)
            response = network.query_dns("198.51.100.9", address, query)
            assert response.header.rcode == Rcode.REFUSED
        assert len(network.refused_pool) == 1
        assert network.scanpath.compiled_hits == 1
        assert network.scanpath.encode_misses == 0
        assert network.codec._answer_cache == {}

    def test_flush_cache_keeps_the_networks_refused_pool(self):
        """A group's end clears the server's compiled answers only: the
        network's REFUSED pool is no server's state, so the same
        question after the flush is still served from it."""
        network = SimulatedInternet()
        server = AuthoritativeServer("ns1.host.net")
        network.register_dns_host("192.0.2.1", server)
        for message_id in (7, 8):
            query = query_with_id("unhosted.net", RRType.A, message_id)
            response = network.query_dns("198.51.100.9", "192.0.2.1", query)
            assert response.header.rcode == Rcode.REFUSED
            assert response.header.message_id == message_id
            server.flush_cache()
            assert server._compiled == {}
            assert len(network.refused_pool) == 1
        assert network.scanpath.compiled_misses == 1
        assert network.scanpath.compiled_hits == 1

    def test_protective_records(self):
        srv = protective_server("ns1.prot.net", "203.0.113.200")
        response = ask(srv, "any-domain.org")
        assert response.header.rcode == Rcode.NOERROR
        assert response.answers[0].rdata == A("203.0.113.200")
        # Synthesized at the queried name.
        assert response.answers[0].owner == name("any-domain.org")

    def test_protective_txt(self):
        srv = protective_server("ns1.prot.net", "203.0.113.200")
        response = ask(srv, "any-domain.org", RRType.TXT)
        assert isinstance(response.answers[0].rdata, TXT)

    def test_protective_nodata_for_other_types(self):
        srv = protective_server("ns1.prot.net", "203.0.113.200")
        response = ask(srv, "any-domain.org", RRType.MX)
        assert response.header.rcode == Rcode.NOERROR
        assert response.answers == []

    def test_recursive_fallback(self):
        answer = Message.make_query("real.net", RRType.A).make_response()
        answer.answers.append(
            __import__(
                "repro.dns.message", fromlist=["ResourceRecord"]
            ).ResourceRecord(name("real.net"), A("198.51.100.77"))
        )

        srv = recursive_server(lambda qname, qtype: answer)
        response = ask(srv, "real.net")
        assert response.header.rcode == Rcode.NOERROR
        assert response.answers[0].rdata == A("198.51.100.77")
        assert response.header.recursion_available

    def test_recursive_fallback_failure_servfail(self):
        srv = recursive_server(lambda qname, qtype: None)
        response = ask(srv, "real.net")
        assert response.header.rcode == Rcode.SERVFAIL


class TestZoneManagement:
    def test_longest_origin_wins(self):
        srv = AuthoritativeServer("ns1.host.net")
        outer = zone_from_records("example.com", [("example.com", "A", "1.1.1.1")])
        inner = zone_from_records(
            "sub.example.com", [("sub.example.com", "A", "2.2.2.2")]
        )
        srv.load_zone(outer)
        srv.load_zone(inner)
        assert srv.zone_for("x.sub.example.com") is inner
        assert srv.zone_for("x.example.com") is outer

    def test_unload_zone(self, server):
        assert server.unload_zone("example.com")
        assert not server.unload_zone("example.com")
        response = ask(server, "example.com")
        assert response.header.rcode == Rcode.REFUSED

    def test_zone_at(self, server):
        assert server.zone_at("example.com") is not None
        assert server.zone_at("www.example.com") is None

    def test_hosts_zone(self, server):
        assert server.hosts_zone("example.com")
        assert not server.hosts_zone("other.com")

    def test_zone_map_keeps_load_order_across_case(self):
        srv = AuthoritativeServer("ns1.host.net")
        first = zone_from_records("a.com", [("a.com", "A", "1.1.1.1")])
        other = zone_from_records("B.com", [("B.com", "A", "2.2.2.2")])
        again = zone_from_records("A.COM", [("A.COM", "A", "3.3.3.3")])
        for zone in (first, other, again):
            srv.load_zone(zone)
        # a reload replaces the zone in its first load position
        assert srv.zones == [again, other]
        assert srv.zone_at("a.com") is again
        assert srv.hosts_zone("b.COM")
        assert srv.unload_zone("b.com")
        assert srv.zones == [again]
        assert not srv.hosts_zone("B.com")

    def test_reloading_replaces(self):
        srv = AuthoritativeServer("ns1.host.net")
        first = zone_from_records("a.com", [("a.com", "A", "1.1.1.1")])
        second = zone_from_records("a.com", [("a.com", "A", "2.2.2.2")])
        srv.load_zone(first)
        srv.load_zone(second)
        response = ask(srv, "a.com")
        assert response.answers[0].rdata == A("2.2.2.2")
