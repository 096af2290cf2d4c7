"""Tests for repro.core.correctness: the Appendix-B conditions."""

import pytest

from repro.core.correctness import (
    ALL_CONDITIONS,
    COND_AS,
    COND_CERT,
    COND_GEO,
    COND_HTTP,
    COND_IP,
    COND_PDNS,
    CorrectRecordDatabase,
    UniformityChecker,
)
from repro.core.records import UndelegatedRecord
from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.intel.ipinfo import HttpPage, IpInfoDatabase
from repro.intel.pdns import PassiveDnsStore

DOMAIN = "victim.com"
LEGIT_IP = "10.1.0.1"  # HostCo US, cert "victim.com Inc"
SAME_AS_IP = "10.1.0.2"  # same prefix, unseen by resolvers
SAME_GEO_IP = "10.2.0.1"  # other AS, same country
FOREIGN_IP = "10.3.0.1"  # attacker AS / country
PARKED_IP = "10.3.0.2"  # attacker prefix, parking page
HISTORIC_IP = "10.4.0.1"  # previous hosting, only in PDNS


@pytest.fixture
def ipinfo():
    db = IpInfoDatabase()
    db.register_prefix("10.1.0.0/16", 64501, "HostCo", "US")
    db.register_prefix("10.2.0.0/16", 64502, "OtherHost", "US")
    db.register_prefix("10.3.0.0/16", 65001, "BulletProof", "RU")
    db.register_prefix("10.4.0.0/16", 64503, "OldHost", "DE")
    db.register_host(LEGIT_IP, cert_org="victim.com Inc")
    db.register_host(SAME_GEO_IP, cert_org="unrelated org")
    db.register_host(PARKED_IP, http=HttpPage.parked())
    return db


@pytest.fixture
def database(ipinfo):
    db = CorrectRecordDatabase(ipinfo)
    db.observe_a(DOMAIN, LEGIT_IP)
    db.observe_txt(DOMAIN, "v=spf1 ip4:10.1.0.1 -all")
    return db


@pytest.fixture
def pdns():
    store = PassiveDnsStore()
    store.observe(DOMAIN, RRType.A, HISTORIC_IP, timestamp=100.0)
    store.observe(DOMAIN, RRType.TXT, "old-verification=abc", timestamp=100.0)
    return store


def a_record(address, domain=DOMAIN):
    return UndelegatedRecord(
        domain=name(domain),
        nameserver_ip="10.99.0.1",
        provider="TestHost",
        rrtype=RRType.A,
        rdata_text=address,
    )


def txt_record(value, domain=DOMAIN):
    return UndelegatedRecord(
        domain=name(domain),
        nameserver_ip="10.99.0.1",
        provider="TestHost",
        rrtype=RRType.TXT,
        rdata_text=value,
    )


class TestConditionsFire:
    def test_ip_subset(self, database, pdns):
        checker = UniformityChecker(database, pdns)
        verdict = checker.check(a_record(LEGIT_IP), now=200.0)
        assert verdict.is_correct
        assert verdict.matched_condition == COND_IP

    def test_as_subset(self, database, pdns):
        checker = UniformityChecker(database, pdns)
        verdict = checker.check(a_record(SAME_AS_IP), now=200.0)
        assert verdict.is_correct
        assert verdict.matched_condition == COND_AS

    def test_geo_subset(self, database, pdns):
        checker = UniformityChecker(database, pdns)
        verdict = checker.check(a_record(SAME_GEO_IP), now=200.0)
        assert verdict.is_correct
        assert verdict.matched_condition == COND_GEO

    def test_cert_subset(self, database, pdns, ipinfo):
        # An IP in a foreign AS/country but serving the domain's cert
        # (e.g. a new CDN POP).
        ipinfo.register_host("10.3.0.9", cert_org="victim.com Inc")
        checker = UniformityChecker(
            database, pdns, enabled_conditions=frozenset({COND_CERT})
        )
        verdict = checker.check(a_record("10.3.0.9"), now=200.0)
        assert verdict.is_correct
        assert verdict.matched_condition == COND_CERT

    def test_pdns_history(self, database, pdns):
        checker = UniformityChecker(database, pdns)
        verdict = checker.check(a_record(HISTORIC_IP), now=200.0)
        assert verdict.is_correct
        assert verdict.matched_condition == COND_PDNS

    def test_http_keyword_parked(self, database, pdns):
        checker = UniformityChecker(database, pdns)
        verdict = checker.check(a_record(PARKED_IP), now=200.0)
        assert verdict.is_correct
        assert verdict.matched_condition == COND_HTTP


class TestAttackerRecordsSurvive:
    def test_foreign_ip_not_excluded(self, database, pdns):
        checker = UniformityChecker(database, pdns)
        assert not checker.check(a_record(FOREIGN_IP), now=200.0).is_correct

    def test_unknown_domain_profile_empty(self, database, pdns):
        checker = UniformityChecker(database, pdns)
        verdict = checker.check(
            a_record(FOREIGN_IP, domain="other.com"), now=200.0
        )
        assert not verdict.is_correct

    def test_unknown_asn_never_matches_as_condition(self, ipinfo, pdns):
        # Two unknown-prefix IPs share ASN 0; that must not count as
        # AS uniformity.
        db = CorrectRecordDatabase(ipinfo)
        db.observe_a(DOMAIN, "172.16.0.1")
        checker = UniformityChecker(
            db, pdns, enabled_conditions=frozenset({COND_AS})
        )
        assert not checker.check(a_record("172.17.0.1"), now=200.0).is_correct


class TestTxtRecords:
    def test_exact_match_excluded(self, database, pdns):
        checker = UniformityChecker(database, pdns)
        verdict = checker.check(
            txt_record("v=spf1 ip4:10.1.0.1 -all"), now=200.0
        )
        assert verdict.is_correct

    def test_pdns_txt_history(self, database, pdns):
        checker = UniformityChecker(database, pdns)
        verdict = checker.check(
            txt_record("old-verification=abc"), now=200.0
        )
        assert verdict.is_correct
        assert verdict.matched_condition == COND_PDNS

    def test_masquerading_spf_survives(self, database, pdns):
        checker = UniformityChecker(database, pdns)
        verdict = checker.check(
            txt_record("v=spf1 ip4:10.3.0.66 -all"), now=200.0
        )
        assert not verdict.is_correct


class TestAblation:
    def test_disabling_condition_stops_exclusion(self, database, pdns):
        without_as = ALL_CONDITIONS - {COND_AS, COND_GEO}
        checker = UniformityChecker(
            database, pdns, enabled_conditions=without_as
        )
        assert not checker.check(a_record(SAME_AS_IP), now=200.0).is_correct

    def test_unknown_condition_rejected(self, database):
        with pytest.raises(ValueError):
            UniformityChecker(
                database, enabled_conditions=frozenset({"bogus"})
            )

    def test_no_pdns_store_skips_condition(self, database):
        checker = UniformityChecker(database, pdns=None)
        assert not checker.check(a_record(HISTORIC_IP), now=200.0).is_correct

    def test_other_rrtypes_never_correct(self, database, pdns):
        checker = UniformityChecker(database, pdns)
        record = UndelegatedRecord(
            domain=name(DOMAIN),
            nameserver_ip="10.99.0.1",
            provider="TestHost",
            rrtype=RRType.MX,
            rdata_text="10 mail.victim.com.",
        )
        assert not checker.check(record, now=200.0).is_correct


class TestDatabase:
    def test_profile_accumulates(self, database, ipinfo):
        profile = database.profile(DOMAIN)
        assert LEGIT_IP in profile.ips
        assert 64501 in profile.asns
        assert "US" in profile.countries
        assert "victim.com Inc" in profile.cert_orgs
