"""Tests for repro.hosting.provider: policy enforcement and serving."""

import random

import pytest

from repro.dns.message import Message, Rcode
from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.hosting.policy import (
    HostingPolicy,
    NsAllocation,
    VerificationMode,
)
from repro.hosting.provider import HostingError, HostingProvider
from repro.net.address import PrefixPlanner
from repro.net.network import SimulatedInternet


def make_provider(policy=None, pool_blocks=1, provider_name="TestHost"):
    network = SimulatedInternet()
    planner = PrefixPlanner()
    provider = HostingProvider(
        provider_name,
        policy or HostingPolicy(),
        network,
        planner.pool(provider_name, blocks=pool_blocks),
        rng=random.Random(5),
    )
    return network, provider


def query(network, server_ip, domain, qtype=RRType.A):
    message = Message.make_query(domain, qtype, recursion_desired=False)
    return network.query_dns("198.51.100.9", server_ip, message)


class TestHosting:
    def test_host_and_serve(self):
        network, provider = make_provider()
        account = provider.create_account()
        hosted = provider.host_zone(account, "victim.com", is_registered=True)
        provider.add_record(hosted, "victim.com", "A", "203.0.113.1")
        response = query(
            network, hosted.nameserver_addresses()[0], "victim.com"
        )
        assert response.header.rcode == Rcode.NOERROR
        assert response.answers[0].rdata.address == "203.0.113.1"

    def test_zone_gets_soa_and_ns(self):
        _, provider = make_provider()
        hosted = provider.host_zone(
            provider.create_account(), "victim.com", is_registered=True
        )
        assert hosted.zone.rrset("victim.com", RRType.SOA)
        assert len(hosted.zone.rrset("victim.com", RRType.NS)) == len(
            hosted.nameservers
        )

    def test_remove_record(self):
        _, provider = make_provider()
        hosted = provider.host_zone(
            provider.create_account(), "victim.com", is_registered=True
        )
        provider.add_record(hosted, "victim.com", "A", "203.0.113.1")
        assert provider.remove_record(hosted, "victim.com", RRType.A) == 1

    def test_delete_zone_stops_serving(self):
        network, provider = make_provider()
        hosted = provider.host_zone(
            provider.create_account(), "victim.com", is_registered=True
        )
        address = hosted.nameserver_addresses()[0]
        provider.delete_zone(hosted)
        response = query(network, address, "victim.com")
        assert response.header.rcode == Rcode.REFUSED
        assert provider.hosted_zones("victim.com") == []


class TestDomainTypePolicy:
    def test_reserved_domain_refused(self):
        _, provider = make_provider(
            HostingPolicy(reserved=frozenset({"google.com"}))
        )
        with pytest.raises(HostingError):
            provider.host_zone(
                provider.create_account(), "google.com", is_registered=True
            )

    def test_etld_refused_when_disallowed(self):
        _, provider = make_provider(HostingPolicy(allows_etld=False))
        with pytest.raises(HostingError):
            provider.host_zone(
                provider.create_account(), "gov.cn", is_registered=True
            )

    def test_etld_allowed_by_default(self):
        _, provider = make_provider()
        hosted = provider.host_zone(
            provider.create_account(), "gov.cn", is_registered=True
        )
        assert hosted.domain == name("gov.cn")

    def test_subdomain_refused_when_disallowed(self):
        _, provider = make_provider(HostingPolicy(allows_subdomains=False))
        with pytest.raises(HostingError):
            provider.host_zone(
                provider.create_account(),
                "api.victim.com",
                is_registered=True,
            )

    def test_subdomain_requires_payment(self):
        _, provider = make_provider(
            HostingPolicy(
                allows_subdomains=True, subdomains_require_payment=True
            )
        )
        with pytest.raises(HostingError):
            provider.host_zone(
                provider.create_account(paid=False),
                "api.victim.com",
                is_registered=True,
            )
        hosted = provider.host_zone(
            provider.create_account(paid=True),
            "api.victim.com",
            is_registered=True,
        )
        assert hosted.domain == name("api.victim.com")

    def test_unregistered_refused_when_disallowed(self):
        _, provider = make_provider(
            HostingPolicy(allows_unregistered=False)
        )
        with pytest.raises(HostingError):
            provider.host_zone(
                provider.create_account(),
                "brand-new.com",
                is_registered=False,
            )

    def test_unregistered_allowed(self):
        _, provider = make_provider(HostingPolicy(allows_unregistered=True))
        hosted = provider.host_zone(
            provider.create_account(), "brand-new.com", is_registered=False
        )
        assert hosted.domain == name("brand-new.com")

    def test_sld_refused_when_disallowed(self):
        _, provider = make_provider(HostingPolicy(allows_sld=False))
        with pytest.raises(HostingError):
            provider.host_zone(
                provider.create_account(), "victim.com", is_registered=True
            )


class TestNsAllocation:
    def test_global_fixed_shares_nameservers(self):
        _, provider = make_provider(
            HostingPolicy(
                ns_allocation=NsAllocation.GLOBAL_FIXED,
                nameservers_per_zone=2,
                pool_size=4,
            )
        )
        first = provider.host_zone(
            provider.create_account(), "a.com", is_registered=True
        )
        second = provider.host_zone(
            provider.create_account(), "b.com", is_registered=True
        )
        assert first.nameserver_addresses() == second.nameserver_addresses()

    def test_account_fixed_varies_by_account(self):
        _, provider = make_provider(
            HostingPolicy(
                ns_allocation=NsAllocation.ACCOUNT_FIXED,
                nameservers_per_zone=2,
                pool_size=8,
            )
        )
        account_a = provider.create_account()
        account_b = provider.create_account()
        zone_a = provider.host_zone(account_a, "a.com", is_registered=True)
        zone_a2 = provider.host_zone(account_a, "a2.com", is_registered=True)
        zone_b = provider.host_zone(account_b, "b.com", is_registered=True)
        assert zone_a.nameserver_addresses() == zone_a2.nameserver_addresses()
        assert zone_a.nameserver_addresses() != zone_b.nameserver_addresses()

    def test_account_fixed_disjoint_for_same_domain(self):
        _, provider = make_provider(
            HostingPolicy(
                ns_allocation=NsAllocation.ACCOUNT_FIXED,
                nameservers_per_zone=2,
                pool_size=8,
                duplicates_cross_user=True,
            )
        )
        zone_a = provider.host_zone(
            provider.create_account(), "same.com", is_registered=True
        )
        zone_b = provider.host_zone(
            provider.create_account(), "same.com", is_registered=True
        )
        assert not set(zone_a.nameserver_addresses()) & set(
            zone_b.nameserver_addresses()
        )

    def test_random_allocation_draws_subset(self):
        _, provider = make_provider(
            HostingPolicy(
                ns_allocation=NsAllocation.RANDOM,
                nameservers_per_zone=4,
                pool_size=20,
            )
        )
        hosted = provider.host_zone(
            provider.create_account(), "a.com", is_registered=True
        )
        assert len(hosted.nameservers) == 4
        assert len(set(hosted.nameserver_addresses())) == 4

    def test_exhaustible_random_pool(self):
        # Amazon-style attack: repeated hosting exhausts the pool.
        _, provider = make_provider(
            HostingPolicy(
                ns_allocation=NsAllocation.RANDOM,
                nameservers_per_zone=4,
                pool_size=8,
                duplicates_single_user=True,
                duplicates_cross_user=True,
                exhaustible_pool=True,
            )
        )
        account = provider.create_account()
        provider.host_zone(account, "same.com", is_registered=True)
        provider.host_zone(account, "same.com", is_registered=True)
        with pytest.raises(HostingError):
            provider.host_zone(account, "same.com", is_registered=True)


class TestDuplicates:
    def test_single_user_duplicate_refused_by_default(self):
        _, provider = make_provider()
        account = provider.create_account()
        provider.host_zone(account, "dup.com", is_registered=True)
        with pytest.raises(HostingError):
            provider.host_zone(account, "dup.com", is_registered=True)

    def test_cross_user_duplicate_refused_by_default(self):
        _, provider = make_provider()
        provider.host_zone(
            provider.create_account(), "dup.com", is_registered=True
        )
        with pytest.raises(HostingError):
            provider.host_zone(
                provider.create_account(), "dup.com", is_registered=True
            )

    def test_cross_user_duplicate_allowed_by_policy(self):
        _, provider = make_provider(
            HostingPolicy(
                duplicates_cross_user=True,
                ns_allocation=NsAllocation.ACCOUNT_FIXED,
                pool_size=8,
            )
        )
        provider.host_zone(
            provider.create_account(), "dup.com", is_registered=True
        )
        second = provider.host_zone(
            provider.create_account(), "dup.com", is_registered=True
        )
        assert second.domain == name("dup.com")


class TestVerification:
    def _delegation_provider(self, delegated_targets):
        _, provider = make_provider(
            HostingPolicy(
                verification=VerificationMode.REQUIRE_DELEGATION
            )
        )
        provider.delegation_lookup = lambda domain: delegated_targets(
            provider
        )
        return provider

    def test_unverified_zone_not_served(self):
        provider = self._delegation_provider(lambda p: [])
        hosted = provider.host_zone(
            provider.create_account(), "victim.com", is_registered=True
        )
        assert not hosted.verified
        assert not any(
            entry.server.hosts_zone("victim.com")
            for entry in provider.pool
        )

    def test_verified_zone_served(self):
        provider = self._delegation_provider(
            lambda p: [entry.hostname for entry in p.pool[:2]]
        )
        hosted = provider.host_zone(
            provider.create_account(), "victim.com", is_registered=True
        )
        assert hosted.verified
        assert any(
            entry.server.hosts_zone("victim.com")
            for entry in provider.pool
        )

    def test_recheck_after_delegation_change(self):
        state = {"delegated": []}
        _, provider = make_provider(
            HostingPolicy(verification=VerificationMode.REQUIRE_DELEGATION)
        )
        provider.delegation_lookup = lambda domain: state["delegated"]
        hosted = provider.host_zone(
            provider.create_account(), "victim.com", is_registered=True
        )
        assert not hosted.verified
        state["delegated"] = [hosted.nameservers[0].hostname]
        assert provider.recheck_verification(hosted)
        assert hosted.nameservers[0].server.hosts_zone("victim.com")

    def test_txt_challenge(self):
        _, provider = make_provider(
            HostingPolicy(
                verification=VerificationMode.REQUIRE_TXT_CHALLENGE
            )
        )
        live_txt = {"values": []}
        provider.live_txt_lookup = lambda domain: live_txt["values"]
        account = provider.create_account()
        token = provider.issue_txt_challenge(account, "victim.com")
        hosted = provider.host_zone(account, "victim.com", is_registered=True)
        assert not hosted.verified
        live_txt["values"] = [f"verify {token}"]
        assert provider.recheck_verification(hosted)

    def test_notify_only_serves_anyway(self):
        # The paper's key observation: the portal nags, the NSes answer.
        network, provider = make_provider(
            HostingPolicy(verification=VerificationMode.NOTIFY_ONLY)
        )
        hosted = provider.host_zone(
            provider.create_account(), "victim.com", is_registered=True
        )
        assert not hosted.verified
        response = query(
            network, hosted.nameserver_addresses()[0], "victim.com",
            RRType.SOA,
        )
        assert response.header.rcode == Rcode.NOERROR


class TestRetrieval:
    def test_retrieval_requires_policy(self):
        _, provider = make_provider(
            HostingPolicy(supports_retrieval=False)
        )
        with pytest.raises(HostingError):
            provider.retrieve_domain(provider.create_account(), "x.com")

    def test_retrieval_requires_proof(self):
        _, provider = make_provider(
            HostingPolicy(supports_retrieval=True)
        )
        provider.delegation_lookup = lambda domain: []
        with pytest.raises(HostingError):
            provider.retrieve_domain(provider.create_account(), "x.com")

    def test_retrieval_evicts_squatter(self):
        _, provider = make_provider(
            HostingPolicy(supports_retrieval=True)
        )
        squatter = provider.create_account()
        squatted = provider.host_zone(squatter, "victim.com", is_registered=True)
        owner = provider.create_account()
        provider.delegation_lookup = lambda domain: [
            entry.hostname for entry in provider.pool[:1]
        ]
        evicted = provider.retrieve_domain(owner, "victim.com")
        assert squatted in evicted
        assert provider.hosted_zones("victim.com") == []


class TestDomainIndex:
    """``_by_domain`` mirrors ``_zones`` through every mutation."""

    @staticmethod
    def assert_index_matches(provider):
        expected = {}
        for hosted in provider._zones:
            expected.setdefault(hosted.domain, []).append(id(hosted))
        actual = {
            domain: [id(hosted) for hosted in zones]
            for domain, zones in provider._by_domain.items()
        }
        assert actual == expected

    def test_host_delete_rehost_retrieve(self):
        _, provider = make_provider(
            HostingPolicy(
                supports_retrieval=True,
                duplicates_cross_user=True,
                ns_allocation=NsAllocation.ACCOUNT_FIXED,
                pool_size=8,
            )
        )
        owner, first, second = (provider.create_account() for _ in range(3))
        owned = provider.host_zone(owner, "victim.com", is_registered=True)
        unrelated = provider.host_zone(owner, "other.com", is_registered=True)
        squatted = provider.host_zone(first, "victim.com", is_registered=True)
        provider.host_zone(second, "victim.com", is_registered=True)
        self.assert_index_matches(provider)

        provider.delete_zone(squatted)
        self.assert_index_matches(provider)
        assert all(
            hosted is not squatted
            for hosted in provider.hosted_zones("victim.com")
        )

        again = provider.host_zone(first, "victim.com", is_registered=True)
        self.assert_index_matches(provider)
        assert provider.hosted_zones("victim.com")[-1] is again

        provider.delegation_lookup = lambda domain: [
            entry.hostname for entry in owned.nameservers
        ]
        evicted = provider.retrieve_domain(owner, "victim.com")
        self.assert_index_matches(provider)
        assert {hosted.account.account_id for hosted in evicted} == {
            first.account_id,
            second.account_id,
        }
        assert provider.hosted_zones("victim.com") == [owned]
        assert provider.hosted_zones("other.com") == [unrelated]

    def test_delete_matches_by_identity(self):
        _, provider = make_provider()
        hosted = provider.host_zone(
            provider.create_account(), "victim.com", is_registered=True
        )
        provider.delete_zone(hosted)
        provider.delete_zone(hosted)  # a second delete is a no-op
        assert provider.hosted_zones() == []
        self.assert_index_matches(provider)


class TestFleetWideServing:
    def test_zone_served_from_whole_pool(self):
        network, provider = make_provider(
            HostingPolicy(
                serves_fleet_wide=True,
                ns_allocation=NsAllocation.ACCOUNT_FIXED,
                nameservers_per_zone=2,
                pool_size=6,
            )
        )
        hosted = provider.host_zone(
            provider.create_account(), "victim.com", is_registered=True
        )
        provider.add_record(hosted, "victim.com", "A", "203.0.113.1")
        for entry in provider.pool:
            response = query(network, entry.address, "victim.com")
            assert response.header.rcode == Rcode.NOERROR

    def test_contested_domain_keeps_assigned_zone(self):
        network, provider = make_provider(
            HostingPolicy(
                serves_fleet_wide=True,
                ns_allocation=NsAllocation.ACCOUNT_FIXED,
                nameservers_per_zone=2,
                pool_size=6,
                duplicates_cross_user=True,
            )
        )
        owner_zone = provider.host_zone(
            provider.create_account(), "victim.com", is_registered=True
        )
        provider.add_record(owner_zone, "victim.com", "A", "1.1.1.1")
        attacker_zone = provider.host_zone(
            provider.create_account(), "victim.com", is_registered=True
        )
        provider.add_record(attacker_zone, "victim.com", "A", "6.6.6.6")
        # Owner's assigned servers still answer with the owner's data.
        owner_ns = owner_zone.nameserver_addresses()[0]
        response = query(network, owner_ns, "victim.com")
        assert response.answers[0].rdata.address == "1.1.1.1"
        # The attacker's assigned servers answer with the UR.
        attacker_ns = attacker_zone.nameserver_addresses()[0]
        response = query(network, attacker_ns, "victim.com")
        assert response.answers[0].rdata.address == "6.6.6.6"


class TestPaidSync:
    def test_sync_requires_policy_and_payment(self):
        _, provider = make_provider(
            HostingPolicy(
                paid_sync_all_nameservers=False, pool_size=4
            )
        )
        hosted = provider.host_zone(
            provider.create_account(paid=True), "v.com", is_registered=True
        )
        with pytest.raises(HostingError):
            provider.sync_all_nameservers(hosted)

    def test_sync_spreads_to_pool(self):
        network, provider = make_provider(
            HostingPolicy(
                paid_sync_all_nameservers=True,
                ns_allocation=NsAllocation.ACCOUNT_FIXED,
                nameservers_per_zone=2,
                pool_size=6,
            )
        )
        free_hosted = provider.host_zone(
            provider.create_account(paid=False), "f.com", is_registered=True
        )
        with pytest.raises(HostingError):
            provider.sync_all_nameservers(free_hosted)
        hosted = provider.host_zone(
            provider.create_account(paid=True), "v.com", is_registered=True
        )
        provider.sync_all_nameservers(hosted)
        assert len(hosted.nameservers) == len(provider.pool)
        for entry in provider.pool:
            assert entry.server.hosts_zone("v.com")
