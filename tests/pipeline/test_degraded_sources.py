"""Degraded-source behaviour at the component level (satellite 3).

Covers ``recover_pdns_subdomains`` and ``UniformityChecker`` under empty
and failing passive-DNS / IP-metadata backends.
"""

import pytest

from repro.core import HunterConfig, URHunter
from repro.core.collector import DomainTarget
from repro.core.correctness import (
    COND_AS,
    COND_CERT,
    COND_GEO,
    COND_HTTP,
    COND_IP,
    COND_PDNS,
    CorrectRecordDatabase,
    UniformityChecker,
)
from repro.core.hunter import recover_pdns_subdomains
from repro.core.records import UndelegatedRecord
from repro.core.suspicion import SuspicionFilter
from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.intel.ipinfo import IpInfoDatabase
from repro.intel.pdns import PassiveDnsStore
from repro.pipeline import FlakyIPInfo, FlakyPassiveDNS

from .conftest import FailingPlan, make_world


def make_ipinfo():
    info = IpInfoDatabase()
    info.register_prefix("10.0.0.0/16", 64500, "HomeNet", "US")
    info.register_prefix("172.16.0.0/12", 64999, "ElseNet", "RU")
    return info


def make_database(ipinfo):
    database = CorrectRecordDatabase(ipinfo)
    database.observe_a("victim.example", "10.0.0.1")
    database.observe_txt("victim.example", "v=spf1 -all")
    return database


def a_record(rdata="172.16.0.9"):
    return UndelegatedRecord(
        domain=name("victim.example"),
        nameserver_ip="192.0.2.1",
        provider="P",
        rrtype=RRType.A,
        rdata_text=rdata,
    )


def txt_record(rdata="v=rogue token"):
    return UndelegatedRecord(
        domain=name("victim.example"),
        nameserver_ip="192.0.2.1",
        provider="P",
        rrtype=RRType.TXT,
        rdata_text=rdata,
    )


class TestRecoverPdnsSubdomains:
    TARGETS = [DomainTarget(domain=name("victim.example"), rank=3)]

    def test_empty_store_recovers_nothing(self):
        assert (
            recover_pdns_subdomains(PassiveDnsStore(), self.TARGETS, 1000.0)
            == []
        )

    def test_recovers_observed_subdomain_with_parent_rank(self):
        pdns = PassiveDnsStore()
        pdns.observe("mail.victim.example", RRType.A, "10.0.0.2", 100.0)
        pdns.observe("other.example", RRType.A, "10.0.0.3", 100.0)
        recovered = recover_pdns_subdomains(pdns, self.TARGETS, 1000.0)
        assert [target.domain for target in recovered] == [
            name("mail.victim.example")
        ]
        assert recovered[0].rank == 3

    def test_dead_store_raises_source_error(self):
        from repro.pipeline import SourceError

        pdns = FlakyPassiveDNS(PassiveDnsStore(), FailingPlan())
        with pytest.raises(SourceError):
            recover_pdns_subdomains(pdns, self.TARGETS, 1000.0)


class TestCheckerDegradedPdns:
    def test_dead_pdns_degrades_a_record(self):
        ipinfo = make_ipinfo()
        checker = UniformityChecker(
            make_database(ipinfo),
            pdns=FlakyPassiveDNS(PassiveDnsStore(), FailingPlan()),
        )
        verdict = checker.check(a_record(), now=1000.0)
        assert not verdict.is_correct
        assert COND_PDNS in verdict.degraded_conditions
        assert checker.skipped_conditions[COND_PDNS] == 1
        assert checker.source_health()["pdns"].degraded

    def test_dead_pdns_degrades_txt_record(self):
        ipinfo = make_ipinfo()
        checker = UniformityChecker(
            make_database(ipinfo),
            pdns=FlakyPassiveDNS(PassiveDnsStore(), FailingPlan()),
        )
        verdict = checker.check(txt_record(), now=1000.0)
        assert not verdict.is_correct
        assert verdict.degraded_conditions == (COND_PDNS,)

    def test_empty_but_healthy_pdns_is_not_degraded(self):
        ipinfo = make_ipinfo()
        checker = UniformityChecker(
            make_database(ipinfo), pdns=PassiveDnsStore()
        )
        verdict = checker.check(a_record(), now=1000.0)
        assert not verdict.is_correct
        assert verdict.degraded_conditions == ()
        assert checker.skipped_conditions == {}

    def test_no_pdns_configured_is_not_degraded(self):
        ipinfo = make_ipinfo()
        checker = UniformityChecker(make_database(ipinfo), pdns=None)
        verdict = checker.check(txt_record(), now=1000.0)
        assert not verdict.is_correct
        assert verdict.degraded_conditions == ()

    def test_transient_pdns_outage_absorbed_by_retries(self):
        ipinfo = make_ipinfo()
        pdns = PassiveDnsStore()
        pdns.observe(
            "victim.example", RRType.A, "172.16.0.9", 500.0
        )
        checker = UniformityChecker(
            make_database(ipinfo),
            pdns=FlakyPassiveDNS(pdns, FailingPlan(first=2)),
        )
        verdict = checker.check(a_record(), now=1000.0)
        # two failures, then the retry budget lands the real answer
        assert verdict.is_correct
        assert verdict.matched_condition == COND_PDNS
        assert checker.source_health()["pdns"].retries == 2


class TestCheckerDegradedIpinfo:
    def test_dead_ipinfo_skips_all_meta_conditions(self):
        ipinfo = make_ipinfo()
        checker = UniformityChecker(
            make_database(ipinfo),
            ipinfo=FlakyIPInfo(ipinfo, FailingPlan()),
        )
        verdict = checker.check(a_record(), now=1000.0)
        assert not verdict.is_correct
        assert set(verdict.degraded_conditions) == {
            COND_AS,
            COND_GEO,
            COND_CERT,
            COND_HTTP,
        }
        for condition in verdict.degraded_conditions:
            assert checker.skipped_conditions[condition] == 1

    def test_ip_subset_still_fires_without_ipinfo(self):
        # COND_IP needs no metadata: a dead ipinfo must not break it
        ipinfo = make_ipinfo()
        checker = UniformityChecker(
            make_database(ipinfo),
            ipinfo=FlakyIPInfo(ipinfo, FailingPlan()),
        )
        verdict = checker.check(a_record(rdata="10.0.0.1"), now=1000.0)
        assert verdict.is_correct
        assert verdict.matched_condition == COND_IP

    def test_healthy_ipinfo_matches_as_subset(self):
        ipinfo = make_ipinfo()
        checker = UniformityChecker(make_database(ipinfo))
        verdict = checker.check(a_record(rdata="10.0.0.77"), now=1000.0)
        assert verdict.is_correct
        assert verdict.matched_condition == COND_AS


class TestSuspicionDegradation:
    def test_degraded_verdict_tags_unverifiable_reason(self):
        ipinfo = make_ipinfo()
        checker = UniformityChecker(
            make_database(ipinfo),
            pdns=FlakyPassiveDNS(PassiveDnsStore(), FailingPlan()),
            ipinfo=FlakyIPInfo(ipinfo, FailingPlan()),
        )
        outcome = SuspicionFilter(checker, {}).classify(
            [a_record()], now=1000.0
        )
        (entry,) = outcome.classified
        assert entry.is_suspicious
        tagged = [
            reason
            for reason in entry.reasons
            if reason.startswith("unverifiable:")
        ]
        assert len(tagged) == 1
        for condition in (COND_AS, COND_PDNS):
            assert condition in tagged[0]
        assert outcome.unverifiable == [entry]


class TestPipelineDegradedPdnsExpansion:
    def test_dead_pdns_skips_expansion_with_note(self):
        world = make_world()
        hunter = URHunter.from_world(
            world, HunterConfig(expand_pdns_subdomains=True)
        )
        hunter.pdns = FlakyPassiveDNS(world.pdns, FailingPlan())
        report = hunter.run()
        assert report.is_degraded
        assert "pdns-expansion-skipped:pdns" in report.degraded.notes
        # the run still measured the configured targets
        assert report.classified

    def test_healthy_pdns_expansion_has_no_note(self):
        world = make_world()
        hunter = URHunter.from_world(
            world, HunterConfig(expand_pdns_subdomains=True)
        )
        report = hunter.run()
        assert report.degraded is None or not report.degraded.notes
