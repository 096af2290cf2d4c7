"""Tests for repro.dns.resolver against a real delegation tree."""

import pytest

from repro.dns.message import Message, Rcode, ResourceRecord
from repro.dns.name import name
from repro.dns.rdata import A, CNAME, RRType
from repro.dns.resolver import (
    OpenResolver,
    RecursiveResolver,
    ResolutionError,
    StubResolver,
)
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import zone_from_records
from repro.hosting.registry import DnsRoot
from repro.net.network import SimulatedInternet


@pytest.fixture
def tree():
    """A network with root, .com/.net TLDs and two authoritative zones."""
    network = SimulatedInternet()
    root = DnsRoot(network)

    example_server = AuthoritativeServer("ns1.example.com")
    example_zone = zone_from_records(
        "example.com",
        [
            ("example.com", "A", "192.0.2.10"),
            ("www", "CNAME", "example.com."),
            ("alias", "CNAME", "target.other.net."),
        ],
    )
    example_zone.ensure_soa("ns1.example.com")
    example_server.load_zone(example_zone)
    network.register_dns_host("10.10.0.1", example_server)

    other_server = AuthoritativeServer("ns1.other.net")
    other_zone = zone_from_records(
        "other.net",
        [
            ("target", "A", "192.0.2.20"),
            ("ns1", "A", "10.20.0.1"),
        ],
    )
    other_zone.ensure_soa("ns1.other.net")
    other_server.load_zone(other_zone)
    network.register_dns_host("10.20.0.1", other_server)

    root.register("example.com", "owner")
    root.delegate("example.com", [(name("ns1.example.com"), "10.10.0.1")])
    root.register("other.net", "owner2")
    root.delegate("other.net", [(name("ns1.other.net"), "10.20.0.1")])
    # Glue for example.com's in-bailiwick nameserver.
    root.tld_zone("com").add("ns1.example.com", A("10.10.0.1"))

    resolver = RecursiveResolver("10.99.0.1", network, root.root_addresses)
    return network, root, resolver


class TestIterativeResolution:
    def test_simple_a_lookup(self, tree):
        _, _, resolver = tree
        assert resolver.lookup_a("example.com") == ["192.0.2.10"]

    def test_in_zone_cname(self, tree):
        _, _, resolver = tree
        assert resolver.lookup_a("www.example.com") == ["192.0.2.10"]

    def test_cross_zone_cname_chase(self, tree):
        _, _, resolver = tree
        response = resolver.resolve("alias.example.com", RRType.A)
        rdatas = [record.rdata for record in response.answers]
        assert A("192.0.2.20") in rdatas
        assert any(isinstance(rdata, CNAME) for rdata in rdatas)

    def test_nxdomain(self, tree):
        _, _, resolver = tree
        response = resolver.resolve("missing.example.com", RRType.A)
        assert response.header.rcode == Rcode.NXDOMAIN

    def test_nodata(self, tree):
        _, _, resolver = tree
        response = resolver.resolve("example.com", RRType.TXT)
        assert response.header.rcode == Rcode.NOERROR
        assert response.answers == []

    def test_unregistered_domain_nxdomain(self, tree):
        _, _, resolver = tree
        response = resolver.resolve("nonexistent.com", RRType.A)
        assert response.header.rcode == Rcode.NXDOMAIN

    def test_dead_nameserver_resolution_error(self, tree):
        network, root, resolver = tree
        network.set_online("10.10.0.1", False)
        resolver.flush_cache()
        with pytest.raises(ResolutionError):
            resolver.resolve("example.com", RRType.A)

    def test_upstream_query_counter(self, tree):
        _, _, resolver = tree
        before = resolver.stats.upstream_queries
        resolver.resolve("example.com", RRType.A)
        assert resolver.stats.upstream_queries > before


class TestCache:
    def test_cache_hit_avoids_upstream(self, tree):
        _, _, resolver = tree
        resolver.resolve("example.com", RRType.A)
        upstream_before = resolver.stats.upstream_queries
        resolver.resolve("example.com", RRType.A)
        assert resolver.stats.upstream_queries == upstream_before
        assert resolver.stats.cache_hits == 1

    def test_cache_expires_with_ttl(self, tree):
        network, _, resolver = tree
        resolver.resolve("example.com", RRType.A)
        network.tick(10_000)  # well past the 300 s default TTL
        upstream_before = resolver.stats.upstream_queries
        resolver.resolve("example.com", RRType.A)
        assert resolver.stats.upstream_queries > upstream_before

    def test_cache_disabled(self, tree):
        network, root, _ = tree
        resolver = RecursiveResolver(
            "10.99.0.2", network, root.root_addresses, cache_enabled=False
        )
        resolver.resolve("example.com", RRType.A)
        upstream_before = resolver.stats.upstream_queries
        resolver.resolve("example.com", RRType.A)
        assert resolver.stats.upstream_queries > upstream_before

    def test_flush(self, tree):
        _, _, resolver = tree
        resolver.resolve("example.com", RRType.A)
        resolver.flush_cache()
        upstream_before = resolver.stats.upstream_queries
        resolver.resolve("example.com", RRType.A)
        assert resolver.stats.upstream_queries > upstream_before


class TestUpstreamFastLane:
    """One query message per question and one pinned channel per
    upstream server — the same exchanges, fewer objects."""

    def test_requeries_resend_the_same_message(self, tree):
        network, root, _ = tree
        resolver = RecursiveResolver(
            "10.99.0.2", network, root.root_addresses, cache_enabled=False
        )
        resolver.resolve("example.com", RRType.A)
        walk = resolver.stats.upstream_queries
        exchanges = network.stats["dns_queries"]
        messages = dict(resolver.query_cache)
        assert list(messages) == [(name("example.com"), RRType.A)]
        assert len(resolver._channels) == walk == 3  # root, TLD, zone
        resolver.resolve("example.com", RRType.A)
        # the second walk costs exactly what the first did
        assert resolver.stats.upstream_queries == 2 * walk
        assert network.stats["dns_queries"] == 2 * exchanges
        assert resolver.query_cache == messages
        assert len(resolver._channels) == walk

    def test_channels_follow_host_changes(self, tree):
        network, _, resolver = tree
        assert resolver.lookup_a("example.com") == ["192.0.2.10"]
        resolver.flush_cache()
        network.set_online("10.10.0.1", False)
        with pytest.raises(ResolutionError):
            resolver.resolve("example.com", RRType.A)
        moved = AuthoritativeServer("ns1.example.com")
        moved.load_zone(
            zone_from_records(
                "example.com", [("example.com", "A", "192.0.2.99")]
            )
        )
        network.register_dns_host("10.10.0.1", moved)
        network.set_online("10.10.0.1", True)
        assert resolver.lookup_a("example.com") == ["192.0.2.99"]

    def test_a_worlds_open_resolvers_share_their_messages(
        self, small_world
    ):
        hosts = small_world.network.dns_hosts()
        caches = {
            id(hosts[address].query_cache)
            for address in small_world.open_resolver_ips
        }
        assert len(small_world.open_resolver_ips) > 1
        assert len(caches) == 1


class TestAsDnsService:
    def test_answers_recursive_clients(self, tree):
        network, _, resolver = tree
        network.register_dns_host("10.99.0.1", resolver)
        stub = StubResolver("10.50.0.1", network, "10.99.0.1")
        assert stub.lookup_a("example.com") == ["192.0.2.10"]

    def test_refuses_non_rd_queries(self, tree):
        network, _, resolver = tree
        network.register_dns_host("10.99.0.1", resolver)
        query = Message.make_query(
            "example.com", RRType.A, recursion_desired=False
        )
        response = network.query_dns("10.50.0.1", "10.99.0.1", query)
        assert response.header.rcode == Rcode.REFUSED

    def test_servfail_on_failure(self, tree):
        network, _, resolver = tree
        network.register_dns_host("10.99.0.1", resolver)
        network.set_online("10.10.0.1", False)
        query = Message.make_query("example.com", RRType.A)
        response = network.query_dns("10.50.0.1", "10.99.0.1", query)
        assert response.header.rcode == Rcode.SERVFAIL

    def test_formerr_on_empty_query(self, tree):
        network, _, resolver = tree
        response = resolver.handle_dns_query(Message(), "10.50.0.1", network)
        assert response.header.rcode == Rcode.FORMERR


class TestOpenResolver:
    def test_honest_by_default(self, tree):
        network, root, _ = tree
        resolver = OpenResolver(
            "10.99.0.3", network, root.root_addresses
        )
        network.register_dns_host("10.99.0.3", resolver)
        stub = StubResolver("10.50.0.1", network, "10.99.0.3")
        assert stub.lookup_a("example.com") == ["192.0.2.10"]
        assert not resolver.is_manipulated

    def test_manipulated_answers_rewritten(self, tree):
        network, root, _ = tree

        def rewriter(response):
            response.answers = [
                ResourceRecord(record.owner, A("6.6.6.6"), record.ttl)
                if isinstance(record.rdata, A)
                else record
                for record in response.answers
            ]
            return response

        resolver = OpenResolver(
            "10.99.0.4", network, root.root_addresses, rewriter=rewriter
        )
        network.register_dns_host("10.99.0.4", resolver)
        stub = StubResolver("10.50.0.1", network, "10.99.0.4")
        assert stub.lookup_a("example.com") == ["6.6.6.6"]
        assert resolver.is_manipulated

    def test_requires_root_hints(self, tree):
        network, _, _ = tree
        with pytest.raises(ValueError):
            RecursiveResolver("10.99.0.5", network, [])
