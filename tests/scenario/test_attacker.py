"""Tests for repro.scenario.attacker."""

import random

import pytest

from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.hosting.policy import HostingPolicy
from repro.hosting.provider import HostingProvider
from repro.net.address import AddressPool, PrefixPlanner, same_slash24
from repro.net.network import SimulatedInternet
from repro.scenario.attacker import Attacker


@pytest.fixture
def env():
    network = SimulatedInternet()
    planner = PrefixPlanner()
    provider = HostingProvider(
        "PermissiveHost",
        HostingPolicy(allows_unregistered=True, allows_subdomains=True),
        network,
        planner.pool("host"),
        rng=random.Random(1),
    )
    strict = HostingProvider(
        "StrictHost",
        HostingPolicy(reserved=frozenset({"trusted.com"})),
        network,
        planner.pool("strict"),
        rng=random.Random(2),
    )
    attacker = Attacker(
        network, planner.pool("c2"), rng=random.Random(3)
    )
    return network, provider, strict, attacker


class TestInfrastructure:
    def test_stand_up_c2_registers_hosts(self, env):
        network, _, _, attacker = env
        addresses = attacker.stand_up_c2(3)
        assert len(addresses) == 3
        for address in addresses:
            assert network.knows(address)

    def test_c2_answers_connections(self, env):
        network, _, _, attacker = env
        (address,) = attacker.stand_up_c2(1)
        response = network.connect_tcp("10.9.9.9", address, 4444, b"HI")
        assert response is not None
        assert attacker.c2_servers[address].connections == 1

    def test_c2_smtp_banner(self, env):
        network, _, _, attacker = env
        (address,) = attacker.stand_up_c2(1)
        response = network.connect_tcp(
            "10.9.9.9", address, 25, b"EHLO victim"
        )
        assert response.startswith(b"250")

    def test_same_slash24_block(self, env):
        _, _, _, attacker = env
        addresses = attacker.stand_up_c2_same_slash24(3)
        assert len(addresses) == 3
        assert all(
            same_slash24(addresses[0], address) for address in addresses
        )


class TestPlanting:
    def test_plant_a_record_served(self, env):
        network, provider, _, attacker = env
        campaign = attacker.new_campaign("c1", ["PermissiveHost"])
        (c2,) = attacker.stand_up_c2(1)
        hosted = attacker.plant_a_record(
            campaign, provider, "trusted.com", c2
        )
        assert hosted is not None
        from repro.dns.message import Message

        response = network.query_dns(
            "10.9.9.9",
            hosted.nameserver_addresses()[0],
            Message.make_query("trusted.com", RRType.A),
        )
        assert response.answers[0].rdata.address == c2

    def test_plant_records_ground_truth(self, env):
        _, provider, _, attacker = env
        campaign = attacker.new_campaign("c1", ["PermissiveHost"])
        (c2,) = attacker.stand_up_c2(1)
        attacker.plant_a_record(campaign, provider, "trusted.com", c2)
        attacker.plant_txt_record(
            campaign,
            provider,
            "trusted.com",
            f"v=spf1 ip4:{c2} -all",
            embedded_ips=[c2],
        )
        identities = attacker.all_planted_identities()
        assert (name("trusted.com"), RRType.A, c2) in identities
        assert (
            name("trusted.com"),
            RRType.TXT,
            f"v=spf1 ip4:{c2} -all",
        ) in identities
        assert campaign.c2_ips == [c2]

    def test_refused_domain_returns_none(self, env):
        _, _, strict, attacker = env
        campaign = attacker.new_campaign("c1", ["StrictHost"])
        (c2,) = attacker.stand_up_c2(1)
        assert (
            attacker.plant_a_record(campaign, strict, "trusted.com", c2)
            is None
        )
        assert campaign.planted == []

    def test_zone_reused_for_same_domain(self, env):
        _, provider, _, attacker = env
        campaign = attacker.new_campaign("c1", ["PermissiveHost"])
        (c2,) = attacker.stand_up_c2(1)
        first = attacker.plant_a_record(campaign, provider, "t.com", c2)
        second = attacker.plant_txt_record(
            campaign, provider, "t.com", "cmd=blob"
        )
        assert first is second
        assert len(campaign.hosted_zones) == 1

    def test_second_campaign_moves_on_from_a_hosted_domain(self, env):
        _, provider, _, attacker = env
        (c2,) = attacker.stand_up_c2(1)
        first = attacker.new_campaign("c1", ["PermissiveHost"])
        attacker.plant_a_record(first, provider, "t.com", c2)
        second = attacker.new_campaign("c2", ["PermissiveHost"])
        assert attacker.plant_a_record(second, provider, "t.com", c2) is None
        assert second.planted == [] and second.hosted_zones == []

    def test_second_campaign_can_reuse_the_accounts_zone(self, env):
        network, provider, strict, attacker = env
        old_c2, new_c2 = attacker.stand_up_c2(2)
        first = attacker.new_campaign("c1", ["PermissiveHost"])
        hosted = attacker.plant_a_record(first, provider, "t.com", old_c2)
        second = attacker.new_campaign("c2", ["PermissiveHost"])
        reused = attacker.plant_a_record(
            second, provider, "t.com", new_c2, reuse_account_zone=True
        )
        assert reused is hosted
        assert second.hosted_zones == [hosted]
        assert second.nameserver_ips() == first.nameserver_ips()
        from repro.dns.message import Message

        response = network.query_dns(
            "10.9.9.9",
            hosted.nameserver_addresses()[0],
            Message.make_query("t.com", RRType.A),
        )
        assert {answer.rdata.address for answer in response.answers} == {
            old_c2,
            new_c2,
        }
        # nothing to fall back to: a policy refusal stays a refusal
        assert (
            attacker.plant_a_record(
                second, strict, "trusted.com", new_c2, reuse_account_zone=True
            )
            is None
        )

    def test_account_reused_per_provider(self, env):
        _, provider, _, attacker = env
        first = attacker.account_at(provider)
        second = attacker.account_at(provider)
        assert first is second

    def test_campaign_nameserver_ips(self, env):
        _, provider, _, attacker = env
        campaign = attacker.new_campaign("c1", ["PermissiveHost"])
        (c2,) = attacker.stand_up_c2(1)
        attacker.plant_a_record(campaign, provider, "t.com", c2)
        assert campaign.nameserver_ips()
