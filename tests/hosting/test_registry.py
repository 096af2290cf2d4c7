"""Tests for repro.hosting.registry: the delegation tree."""

import pytest

from repro.dns.message import Message
from repro.dns.name import name
from repro.dns.rdata import A, RRType
from repro.dns.resolver import RecursiveResolver
from repro.hosting.registry import DnsRoot, RegistryError
from repro.net.address import PrefixPlanner
from repro.net.network import SimulatedInternet


@pytest.fixture
def network():
    return SimulatedInternet()


@pytest.fixture
def root(network):
    return DnsRoot(network)


class TestTlds:
    def test_ensure_tld_creates_zone_and_server(self, root, network):
        zone = root.ensure_tld("com")
        assert zone.origin == name("com")
        assert name("com") in root.tlds()

    def test_ensure_tld_idempotent(self, root):
        first = root.ensure_tld("com")
        second = root.ensure_tld("com")
        assert first is second

    def test_multi_label_tld_rejected(self, root):
        with pytest.raises(RegistryError):
            root.ensure_tld("co.uk")

    def test_tld_delegated_from_root(self, root, network):
        root.ensure_tld("com")
        resolver = RecursiveResolver("9.9.9.9", network, root.root_addresses)
        response = resolver.resolve("com", RRType.NS)
        # TLD server is authoritative for its own NS records.
        assert response.answers


class TestRegistration:
    def test_register(self, root):
        registration = root.register("example.com", "alice")
        assert registration.registrant == "alice"
        assert not registration.nameservers
        assert root.is_registered("example.com")

    def test_double_registration_rejected(self, root):
        root.register("example.com", "alice")
        with pytest.raises(RegistryError):
            root.register("example.com", "bob")

    def test_register_under_etld(self, root):
        registration = root.register("city.gov.cn", "gov")
        assert registration.domain == name("city.gov.cn")

    def test_cannot_register_tld(self, root):
        with pytest.raises(RegistryError):
            root.register("com", "icann")

    def test_registration_lookup(self, root):
        root.register("example.com", "alice")
        assert root.registration("example.com") is not None
        assert root.registration("other.com") is None


class TestDelegation:
    def test_delegate_and_query(self, root, network):
        root.register("example.com", "alice")
        root.delegate(
            "example.com", [(name("ns1.example.com"), "10.0.0.1")]
        )
        assert root.delegation_of("example.com") == [
            name("ns1.example.com")
        ]
        assert root.delegated_addresses("example.com") == ["10.0.0.1"]

    def test_delegate_unregistered_rejected(self, root):
        with pytest.raises(RegistryError):
            root.delegate("nope.com", [(name("ns1.x.com"), "10.0.0.1")])

    def test_redelegation_replaces(self, root):
        root.register("example.com", "alice")
        root.delegate("example.com", [(name("ns1.old.net"), "10.0.0.1")])
        root.delegate("example.com", [(name("ns1.new.net"), "10.0.0.2")])
        assert root.delegation_of("example.com") == [name("ns1.new.net")]

    def test_undelegate(self, root):
        root.register("example.com", "alice")
        root.delegate("example.com", [(name("ns1.x.net"), "10.0.0.1")])
        root.undelegate("example.com")
        assert root.delegation_of("example.com") == []
        assert root.is_registered("example.com")

    def test_undelegate_unregistered_rejected(self, root):
        with pytest.raises(RegistryError):
            root.undelegate("nope.com")

    def test_delegation_of_unregistered_is_empty(self, root):
        assert root.delegation_of("nope.com") == []

    def test_tld_referral_contains_delegation(self, root, network):
        root.register("example.com", "alice")
        root.delegate(
            "example.com", [(name("ns1.example.com"), "10.0.0.1")]
        )
        tld_address = root._tld_addresses[name("com")]
        query = Message.make_query(
            "www.example.com", RRType.A, recursion_desired=False
        )
        response = network.query_dns("9.9.9.9", tld_address, query)
        assert response.is_referral()
        # In-bailiwick target carries glue.
        assert [
            (record.owner, record.rdata) for record in response.additionals
        ] == [(name("ns1.example.com"), A("10.0.0.1"))]


class TestConnectProvider:
    def test_provider_ns_domain_resolvable(self, network, root):
        from repro.hosting.presets import make_godaddy

        planner = PrefixPlanner()
        provider = make_godaddy(network, planner.pool("gd"))
        root.connect_provider(provider)
        resolver = RecursiveResolver("9.9.9.9", network, root.root_addresses)
        first_ns = provider.pool[0]
        addresses = resolver.lookup_a(first_ns.hostname)
        assert addresses == [first_ns.address]

    def test_glueless_customer_delegation_resolves(self, network, root):
        from repro.hosting.presets import make_godaddy

        planner = PrefixPlanner()
        provider = make_godaddy(network, planner.pool("gd"))
        root.connect_provider(provider)
        account = provider.create_account()
        hosted = provider.host_zone(account, "customer.org", is_registered=True)
        provider.add_record(hosted, "customer.org", "A", "198.51.100.5")
        root.register("customer.org", "bob")
        root.delegate(
            "customer.org", provider.nameserver_set_for_delegation(hosted)
        )
        resolver = RecursiveResolver("9.9.9.9", network, root.root_addresses)
        assert resolver.lookup_a("customer.org") == ["198.51.100.5"]
