"""Cross-layer integration tests: squatters, retrieval conflicts, and
the HTTP-keyword exclusion in a full measurement."""

import pytest

from repro.core import URCategory, URHunter
from repro.dns.rdata import RRType
from repro.hosting import HostingError


class TestSquatterExclusion:
    def test_parked_urs_excluded_via_http_keyword(self, small_report):
        """Squatter/parking zones survive delegation checks but the HTTP
        keyword filter (Appendix B) labels them correct (= not abuse)."""
        http_excluded = [
            entry
            for entry in small_report.classified
            if entry.category is URCategory.CORRECT
            and "http-keyword" in entry.reasons
        ]
        assert http_excluded, "scenario produced no parked URs"

    def test_parked_urs_point_at_parking_prefix(
        self, small_world, small_report
    ):
        parked_ips = {
            entry.record.rdata_text
            for entry in small_report.classified
            if "http-keyword" in entry.reasons
            and entry.record.rrtype == RRType.A
        }
        for address in parked_ips:
            meta = small_world.ipinfo.lookup(address)
            assert meta.http.kind.value in ("parked", "redirect")


class TestPastDelegationExclusion:
    def test_stale_zones_excluded_via_pdns(self, small_report):
        """Past-delegation leftovers match six-year passive DNS history
        and are excluded as correct records."""
        pdns_excluded = [
            entry
            for entry in small_report.classified
            if entry.category is URCategory.CORRECT
            and "pdns-history" in entry.reasons
        ]
        assert pdns_excluded, "scenario produced no past delegations"


class TestMisconfiguredRecursives:
    def test_recursive_answers_excluded_as_correct(
        self, small_world, small_report
    ):
        """Misconfigured open-recursive nameservers return the real
        records; those URs land in correct, not suspicious."""
        from repro.dns.server import UnhostedPolicy

        recursive_ns = {
            entry.address
            for provider in small_world.providers.values()
            for entry in provider.pool
            if entry.server.unhosted_policy is UnhostedPolicy.RECURSIVE
        }
        if not recursive_ns:
            pytest.skip("seed produced no misconfigured recursives")
        from_recursives = [
            entry
            for entry in small_report.classified
            if entry.record.nameserver_ip in recursive_ns
        ]
        assert from_recursives
        for entry in from_recursives:
            assert entry.category in (
                URCategory.CORRECT,
                URCategory.PROTECTIVE,
            ), entry


class TestRetrievalConflict:
    """Appendix C: when an attacker squats first, what can the owner do?"""

    def test_owner_blocked_then_retrieves_on_supporting_provider(
        self, small_world
    ):
        tencent = small_world.providers["Tencent Cloud"]
        attacker_account = tencent.create_account()
        victim_domain = "retrieval-conflict-test.com"
        small_world.root.register(victim_domain, "the-owner")
        squatted = tencent.host_zone(
            attacker_account, victim_domain, is_registered=True
        )
        owner_account = tencent.create_account()
        # Tencent allows cross-user duplicates, so the owner *can* host —
        # but on providers that refuse duplicates they'd be locked out.
        owner_zone = tencent.host_zone(
            owner_account, victim_domain, is_registered=True
        )
        # The owner proves control by delegating to Tencent, then evicts
        # the squatter via the retrieval mechanism.
        small_world.root.delegate(
            victim_domain,
            tencent.nameserver_set_for_delegation(owner_zone),
        )
        evicted = tencent.retrieve_domain(owner_account, victim_domain)
        assert squatted in evicted
        remaining = tencent.hosted_zones(victim_domain)
        assert remaining == [owner_zone]

    def test_owner_locked_out_without_retrieval(self, small_world):
        godaddy = small_world.providers["Godaddy"]
        attacker_account = godaddy.create_account()
        victim_domain = "lockout-conflict-test.com"
        godaddy.host_zone(
            attacker_account, victim_domain, is_registered=True
        )
        owner_account = godaddy.create_account()
        # GoDaddy: no cross-user duplicates and no retrieval — the
        # legitimate owner simply cannot host (the Appendix C finding).
        with pytest.raises(HostingError):
            godaddy.host_zone(
                owner_account, victim_domain, is_registered=True
            )
        with pytest.raises(HostingError):
            godaddy.retrieve_domain(owner_account, victim_domain)


class TestManipulatedResolverPollution:
    def test_ad_server_lands_in_correct_db_without_breaking_fn(
        self, small_world, small_hunter, small_report
    ):
        """Manipulated open resolvers pollute the correct-record database
        (the ad server shows up in profiles) but the §4.2 validation
        stays clean — matching the paper's robustness argument."""
        from repro.scenario.world import AD_SERVER_IP

        assert small_report.false_negative_rate == 0.0
        correct_db = (
            URHunter.from_world(small_world).stage1_collect().correct_db
        )
        polluted = [
            target.domain
            for target in small_world.domain_targets
            if AD_SERVER_IP in correct_db.profile(target.domain).ips
        ]
        manipulated = [
            resolver
            for resolver in small_world.open_resolvers
            if resolver.is_manipulated
        ]
        if manipulated:
            assert polluted, "manipulated resolvers left no trace"
