"""Tests for repro.analysis.tables: Table 1 and the Table 2 probe."""

import dataclasses

import pytest

from repro.analysis.tables import (
    PROBE_RETRIEVAL,
    build_table1,
    build_table2,
    infer_allocation,
    probe_provider,
)
from repro.hosting.policy import NsAllocation
from repro.hosting.provider import HostingError
from repro.scenario import build_world, small_config


class TestTable1:
    def test_rows_match_report_stats(self, small_report):
        table = build_table1(small_report)
        stats = small_report.suspicious_stats()
        assert table.rows["Total"].urs_total == stats["Total"].urs_total
        assert "Table 1" in table.text

    def test_all_three_rows_rendered(self, small_report):
        table = build_table1(small_report)
        for label in ("A", "TXT", "Total"):
            assert label in table.text

    def test_percentages_in_text(self, small_report):
        table = build_table1(small_report)
        assert "%" in table.text


TABLE2_PROVIDERS = (
    "Alibaba Cloud",
    "Amazon",
    "Baidu Cloud",
    "ClouDNS",
    "Cloudflare",
    "Godaddy",
    "Tencent Cloud",
)

#: the paper's Table 2, one row per provider: NS allocation, then hosts
#: without verification, unregistered, subdomain, SLD, eTLD, duplicate
#: (single user), duplicate (cross user), no retrieval
PAPER_TABLE2 = {
    "Alibaba Cloud": (
        NsAllocation.GLOBAL_FIXED,
        True, False, True, True, True, False, False, False,
    ),
    "Amazon": (
        NsAllocation.RANDOM,
        True, True, True, True, True, True, True, True,
    ),
    "Baidu Cloud": (
        NsAllocation.GLOBAL_FIXED,
        True, False, False, True, True, False, False, False,
    ),
    "ClouDNS": (
        NsAllocation.GLOBAL_FIXED,
        True, True, True, True, True, False, False, True,
    ),
    "Cloudflare": (
        NsAllocation.ACCOUNT_FIXED,
        True, False, True, True, True, False, True, False,
    ),
    "Godaddy": (
        NsAllocation.GLOBAL_FIXED,
        True, False, True, True, True, False, False, True,
    ),
    "Tencent Cloud": (
        NsAllocation.ACCOUNT_FIXED,
        True, False, False, True, True, False, True, False,
    ),
}

#: providers that verify delegation before serving once the paper's
#: disclosure is applied
VERIFY_AFTER_DISCLOSURE = {"Alibaba Cloud", "Tencent Cloud"}


def row(result):
    return (
        result.ns_allocation,
        result.hosts_without_verification,
        result.allows_unregistered,
        result.allows_subdomain,
        result.allows_sld,
        result.allows_etld,
        result.duplicate_single_user,
        result.duplicate_cross_user,
        result.no_retrieval,
    )


def probe_world(post_disclosure):
    """Probe the seven Table-2 providers of a fresh world."""
    config = small_config(seed=55)
    config.post_disclosure = post_disclosure
    world = build_world(config)
    providers = [world.providers[provider] for provider in TABLE2_PROVIDERS]
    table = build_table2(providers, world.root)
    return {result.provider: result for result in table.results}, table


@pytest.fixture(scope="module")
def probes():
    return probe_world(post_disclosure=False)


@pytest.fixture(scope="module")
def disclosed_probes():
    return probe_world(post_disclosure=True)


class TestInferAllocation:
    """Two accounts' zones' nameserver sets -> the allocation strategy."""

    A = frozenset({"192.0.2.1", "192.0.2.2"})
    B = frozenset({"192.0.2.3", "192.0.2.4"})
    C = frozenset({"192.0.2.5", "192.0.2.6"})

    def test_one_set_everywhere_is_global_fixed(self):
        sets = [[self.A, self.A, self.A], [self.A, self.A, self.A]]
        assert infer_allocation(sets) is NsAllocation.GLOBAL_FIXED

    def test_one_set_per_account_is_account_fixed(self):
        sets = [[self.A, self.A, self.A], [self.B, self.B, self.B]]
        assert infer_allocation(sets) is NsAllocation.ACCOUNT_FIXED

    def test_sets_varying_within_an_account_are_random(self):
        sets = [[self.A, self.B, self.A], [self.C, self.C, self.C]]
        assert infer_allocation(sets) is NsAllocation.RANDOM

    def test_sets_varying_in_every_account_are_random(self):
        sets = [[self.A, self.B, self.C], [self.C, self.B, self.A]]
        assert infer_allocation(sets) is NsAllocation.RANDOM

    def test_an_account_with_no_hosted_zone_adds_no_evidence(self):
        # A provider refusing the second account's zones leaves one
        # account's evidence.
        assert infer_allocation([[self.A, self.A], []]) is (
            NsAllocation.GLOBAL_FIXED
        )
        assert infer_allocation([[self.A, self.B], []]) is NsAllocation.RANDOM


class TestTable2Rows:
    """Each provider's probed row, whole, before and after disclosure."""

    @pytest.mark.parametrize("provider", TABLE2_PROVIDERS)
    def test_row_matches_the_paper(self, probes, provider):
        results, _ = probes
        assert row(results[provider]) == PAPER_TABLE2[provider]

    @pytest.mark.parametrize("provider", TABLE2_PROVIDERS)
    def test_disclosure_changes_only_the_verification_cell(
        self, disclosed_probes, provider
    ):
        results, _ = disclosed_probes
        expected = list(PAPER_TABLE2[provider])
        expected[1] = provider not in VERIFY_AFTER_DISCLOSURE
        assert row(results[provider]) == tuple(expected)


class TestTable2PaperMatrix:
    """The probe must reproduce the paper's Table 2 row by row."""

    def test_ns_allocation_column(self, probes):
        results, _ = probes
        assert results["Alibaba Cloud"].ns_allocation is NsAllocation.GLOBAL_FIXED
        assert results["Amazon"].ns_allocation is NsAllocation.RANDOM
        assert results["Cloudflare"].ns_allocation is NsAllocation.ACCOUNT_FIXED
        assert results["Tencent Cloud"].ns_allocation is NsAllocation.ACCOUNT_FIXED

    def test_all_host_without_verification(self, probes):
        results, _ = probes
        for result in results.values():
            assert result.hosts_without_verification, result.provider

    def test_unregistered_column(self, probes):
        results, _ = probes
        allowed = {
            provider
            for provider, result in results.items()
            if result.allows_unregistered
        }
        assert allowed == {"Amazon", "ClouDNS"}

    def test_subdomain_column(self, probes):
        results, _ = probes
        refused = {
            provider
            for provider, result in results.items()
            if not result.allows_subdomain
        }
        assert refused == {"Baidu Cloud", "Tencent Cloud"}

    def test_sld_and_etld_columns(self, probes):
        results, _ = probes
        for result in results.values():
            assert result.allows_sld, result.provider
            assert result.allows_etld, result.provider

    def test_duplicate_columns(self, probes):
        results, _ = probes
        single = {
            provider
            for provider, result in results.items()
            if result.duplicate_single_user
        }
        cross = {
            provider
            for provider, result in results.items()
            if result.duplicate_cross_user
        }
        assert single == {"Amazon"}
        assert cross == {"Amazon", "Cloudflare", "Tencent Cloud"}

    def test_no_retrieval_column(self, probes):
        results, _ = probes
        no_retrieval = {
            provider
            for provider, result in results.items()
            if result.no_retrieval
        }
        assert no_retrieval == {"Amazon", "ClouDNS", "Godaddy"}

    def test_rendered_table(self, probes):
        _, table = probes
        assert "Table 2" in table.text
        assert "Cloudflare" in table.text

    def test_probe_cleans_up(self, probes):
        # Ethics: every probe zone is removed afterwards.
        world = build_world(small_config(seed=56))
        provider = world.providers["Godaddy"]
        zones_before = len(provider.hosted_zones())
        probe_provider(provider, world.root)
        assert len(provider.hosted_zones()) == zones_before

    def test_reserved_note_reported(self, probes):
        results, _ = probes
        assert any(
            "prohibited" in note
            for note in results["Cloudflare"].notes
        )

    def test_probe_leaves_no_delegation(self):
        world = build_world(small_config(seed=56))
        probe_provider(world.providers["Tencent Cloud"], world.root)
        assert world.root.delegation_of(PROBE_RETRIEVAL) == []


class TestTable2IsProbed:
    """The allocation and retrieval cells come from what the provider
    does, never from its policy object."""

    @pytest.mark.parametrize(
        "provider_name, allocation, retrieval",
        [
            ("Godaddy", NsAllocation.ACCOUNT_FIXED, True),
            ("Tencent Cloud", NsAllocation.RANDOM, False),
            ("Amazon", NsAllocation.GLOBAL_FIXED, True),
        ],
    )
    def test_probed_row_follows_an_edited_preset(
        self, provider_name, allocation, retrieval
    ):
        world = build_world(small_config(seed=7))
        provider = world.providers[provider_name]
        assert provider.policy.ns_allocation is not allocation
        assert provider.policy.supports_retrieval is not retrieval
        provider.policy = dataclasses.replace(
            provider.policy,
            ns_allocation=allocation,
            supports_retrieval=retrieval,
        )
        result = probe_provider(provider, world.root)
        assert result.ns_allocation is allocation
        assert result.no_retrieval is not retrieval

    def test_probed_row_ignores_the_policy_label(self, monkeypatch):
        """Tencent's policy says account-fixed with retrieval; make it
        hand every zone the same two servers and refuse every claim."""
        world = build_world(small_config(seed=7))
        provider = world.providers["Tencent Cloud"]
        assert provider.policy.ns_allocation is NsAllocation.ACCOUNT_FIXED
        assert provider.policy.supports_retrieval

        def refuse(claimant, domain):
            raise HostingError("retrieval is down")

        monkeypatch.setattr(
            provider,
            "_allocate_nameservers",
            lambda account, domain: provider.pool[:2],
        )
        monkeypatch.setattr(provider, "retrieve_domain", refuse)
        result = probe_provider(provider, world.root)
        assert result.ns_allocation is NsAllocation.GLOBAL_FIXED
        assert result.no_retrieval
