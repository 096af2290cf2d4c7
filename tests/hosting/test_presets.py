"""Tests for repro.hosting.presets: the Table 2 provider matrix."""

import random

import pytest

from repro.hosting.policy import NsAllocation, VerificationMode
from repro.hosting.presets import (
    COMMON_RESERVED,
    EXPANDED_RESERVED,
    HEADLINE_BUILDERS,
    TABLE2_PROVIDERS,
    build_headline_providers,
    make_alibaba,
    make_amazon,
    make_cloudflare,
    make_cloudns,
    make_longtail_provider,
    make_namecheap,
    make_tencent,
)
from repro.net.address import PrefixPlanner
from repro.net.network import SimulatedInternet


@pytest.fixture
def env():
    return SimulatedInternet(), PrefixPlanner()


class TestTable2Matrix:
    """Each provider preset matches its Table 2 row."""

    def test_cloudflare(self, env):
        network, planner = env
        provider = make_cloudflare(
            network, planner.pool("cf"), post_disclosure=False
        )
        policy = provider.policy
        assert policy.ns_allocation is NsAllocation.ACCOUNT_FIXED
        assert policy.hosts_without_verification
        assert not policy.allows_unregistered
        assert policy.allows_subdomains and policy.subdomains_require_payment
        assert policy.allows_etld
        assert not policy.duplicates_single_user
        assert policy.duplicates_cross_user
        assert policy.supports_retrieval  # "No retrieval" column is ✘

    def test_amazon(self, env):
        network, planner = env
        provider = make_amazon(network, planner.pool("aws"))
        policy = provider.policy
        assert policy.ns_allocation is NsAllocation.RANDOM
        assert policy.nameservers_per_zone == 4
        assert policy.hosts_without_verification
        assert policy.allows_unregistered
        assert policy.allows_subdomains
        assert policy.duplicates_single_user
        assert policy.duplicates_cross_user
        assert not policy.supports_retrieval
        assert policy.exhaustible_pool

    def test_cloudns(self, env):
        network, planner = env
        provider = make_cloudns(network, planner.pool("cd"))
        policy = provider.policy
        assert policy.ns_allocation is NsAllocation.GLOBAL_FIXED
        assert policy.allows_unregistered
        assert policy.allows_subdomains
        assert not policy.supports_retrieval
        assert policy.protective_records

    def test_tencent_pre_and_post_disclosure(self, env):
        network, planner = env
        before = make_tencent(
            network, planner.pool("t1"), post_disclosure=False
        )
        assert before.policy.hosts_without_verification
        after = make_tencent(
            network, planner.pool("t2"), post_disclosure=True
        )
        assert (
            after.policy.verification
            is VerificationMode.REQUIRE_DELEGATION
        )
        assert not after.policy.hosts_without_verification

    def test_alibaba_post_disclosure_txt_challenge(self, env):
        network, planner = env
        after = make_alibaba(
            network, planner.pool("ali"), post_disclosure=True
        )
        assert (
            after.policy.verification
            is VerificationMode.REQUIRE_TXT_CHALLENGE
        )

    def test_alibaba_serves_fleet_wide(self, env):
        network, planner = env
        provider = make_alibaba(
            network, planner.pool("ali"), post_disclosure=False
        )
        assert provider.policy.serves_fleet_wide

    def test_cloudflare_expanded_blacklist(self, env):
        network, planner = env
        provider = make_cloudflare(
            network, planner.pool("cf"), post_disclosure=True
        )
        assert provider.policy.is_reserved("speedtest.net")
        assert provider.policy.is_reserved("github.com")

    def test_namecheap_serves_whole_pool(self, env):
        network, planner = env
        provider = make_namecheap(network, planner.pool("nc"))
        assert provider.policy.nameservers_per_zone == len(provider.pool)

    def test_reserved_sets(self):
        assert COMMON_RESERVED < EXPANDED_RESERVED
        assert "speedtest.net" in EXPANDED_RESERVED


class TestBuilders:
    def test_build_all_headline_providers(self, env):
        network, planner = env
        providers = build_headline_providers(network, planner)
        assert set(TABLE2_PROVIDERS) <= set(providers)
        # Every pool nameserver is registered on the network.
        for provider in providers.values():
            for entry in provider.pool:
                assert network.knows(entry.address)

    def test_each_provider_has_unique_pool(self, env):
        network, planner = env
        providers = build_headline_providers(network, planner)
        all_addresses = [
            entry.address
            for provider in providers.values()
            for entry in provider.pool
        ]
        assert len(all_addresses) == len(set(all_addresses))

    def test_longtail_deterministic(self, env):
        network, planner = env
        first = make_longtail_provider(
            1, network, planner.pool("lt1"), random.Random(3)
        )
        network2, planner2 = SimulatedInternet(), PrefixPlanner()
        second = make_longtail_provider(
            1, network2, planner2.pool("lt1"), random.Random(3)
        )
        assert first.policy == second.policy

    def test_longtail_pool_covers_allocation(self, env):
        network, planner = env
        rng = random.Random(0)
        for index in range(20):
            provider = make_longtail_provider(
                index, network, planner.pool(f"lt{index}"), rng
            )
            assert (
                provider.policy.pool_size
                >= provider.policy.nameservers_per_zone
            )
