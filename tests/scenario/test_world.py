"""Tests for repro.scenario.world: the assembled simulated internet."""

import pytest

from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.dns.resolver import RecursiveResolver
from repro.scenario import ScenarioConfig, build_world, small_config
from repro.scenario.config import MANIPULATED_RESOLVER_FRACTION, VENDOR_COUNT


class TestWorldAssembly:
    def test_headline_providers_present(self, small_world):
        for provider_name in (
            "Cloudflare",
            "Amazon",
            "ClouDNS",
            "Godaddy",
            "Tencent Cloud",
            "Alibaba Cloud",
            "Baidu Cloud",
            "Namecheap",
            "CSC",
        ):
            assert provider_name in small_world.providers

    def test_longtail_providers_counted(self, small_world):
        longtail = [
            key
            for key in small_world.providers
            if key.startswith("Provider-")
        ]
        assert len(longtail) == small_world.config.longtail_providers

    def test_nameserver_targets_cover_providers(self, small_world):
        providers = {
            target.provider for target in small_world.nameserver_targets
        }
        assert "Cloudflare" in providers
        assert "ClouDNS" in providers

    def test_domain_targets_include_case_studies(self, small_world):
        targets = {str(target.domain) for target in small_world.domain_targets}
        for domain in (
            "speedtest.net",
            "ibm.com",
            "api.gitlab.com",
            "raw.pastebin.com",
            "api.github.com",
        ):
            assert domain in targets

    def test_delegated_domains_resolve(self, small_world):
        resolver = RecursiveResolver(
            "10.123.0.1",
            small_world.network,
            small_world.root.root_addresses,
        )
        resolved = 0
        for domain, addresses in list(small_world.delegated_to.items())[:10]:
            result = resolver.lookup_a(domain)
            if result:
                resolved += 1
        assert resolved >= 8  # nearly all delegations work end to end

    def test_open_resolvers_registered(self, small_world):
        assert (
            len(small_world.open_resolver_ips)
            == small_world.config.open_resolvers
        )
        for address in small_world.open_resolver_ips:
            assert small_world.network.knows(address)

    def test_manipulated_resolver_fraction(self, small_world):
        manipulated = [
            resolver
            for resolver in small_world.open_resolvers
            if resolver.is_manipulated
        ]
        expected = round(
            small_world.config.open_resolvers * MANIPULATED_RESOLVER_FRACTION
        )
        assert len(manipulated) == expected

    def test_sandbox_ran_all_samples(self, small_world):
        assert len(small_world.sandbox_reports) == len(small_world.samples)
        assert len(small_world.samples) > 0

    def test_case_study_campaigns_present(self, small_world):
        assert set(small_world.case_studies) == {
            "Dark.IoT",
            "Specter",
            "SPF-masquerade",
        }

    def test_spf_campaign_spans_eleven_nameservers(self, small_world):
        spf = small_world.case_studies["SPF-masquerade"]
        assert (
            len(
                {
                    address
                    for hosted in spf.hosted_zones
                    for address in hosted.nameserver_addresses()
                }
            )
            == 11
        )
        assert len(spf.c2_ips) == 3

    def test_attacker_identities_nonempty(self, small_world):
        assert small_world.attacker_identities

    def test_pdns_has_history(self, small_world):
        assert len(small_world.pdns) > 0

    def test_vendor_fleet_size(self, small_world):
        assert len(small_world.vendors) == VENDOR_COUNT



class TestDeterminism:
    def test_same_seed_same_world(self):
        config = small_config(seed=77)
        first = build_world(config)
        second = build_world(small_config(seed=77))
        assert [entry.domain for entry in first.tranco] == [
            entry.domain for entry in second.tranco
        ]
        assert first.attacker_identities == second.attacker_identities
        assert [t.address for t in first.nameserver_targets] == [
            t.address for t in second.nameserver_targets
        ]

    def test_different_seed_differs(self):
        first = build_world(small_config(seed=77))
        second = build_world(small_config(seed=78))
        assert first.attacker_identities != second.attacker_identities


class TestConfigValidation:
    def test_target_exceeds_top_list(self):
        with pytest.raises(ValueError):
            ScenarioConfig(top_list_size=10, target_domains=20)


class TestPostDisclosure:
    def test_tencent_blocks_urs_after_disclosure(self):
        config = small_config(seed=3)
        config.post_disclosure = True
        world = build_world(config)
        tencent = world.providers["Tencent Cloud"]
        assert not tencent.policy.hosts_without_verification

    def test_cloudflare_expanded_blacklist_after_disclosure(self):
        config = small_config(seed=3)
        config.post_disclosure = True
        world = build_world(config)
        cloudflare = world.providers["Cloudflare"]
        assert cloudflare.policy.is_reserved("speedtest.net")

    def test_tencent_serves_the_zones_delegated_to_it(self):
        """Hosting verifies before the world delegates, so the world
        re-verifies: a delegated legitimate zone is served, a zone whose
        domain is delegated elsewhere stays dark."""
        config = small_config(seed=7)
        config.post_disclosure = True
        world = build_world(config)
        tencent = world.providers["Tencent Cloud"]
        delegated, dark = [], []
        for hosted in tencent.hosted_zones():
            assigned = {entry.hostname for entry in hosted.nameservers}
            if set(world.root.delegation_of(hosted.domain)) == assigned:
                delegated.append(hosted)
            else:
                dark.append(hosted)
        assert len(delegated) == 5 and dark
        for hosted in delegated:
            assert hosted.verified
            for entry in hosted.nameservers:
                assert entry.server.hosts_zone(hosted.domain), hosted.domain
        for hosted in dark:
            assert not hosted.verified
            for entry in hosted.nameservers:
                assert not entry.server.hosts_zone(hosted.domain), hosted.domain
