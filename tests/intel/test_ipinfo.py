"""Tests for repro.intel.ipinfo."""

import pytest

from repro.intel.ipinfo import (
    HttpPage,
    IpInfoDatabase,
    PAGE_KEYWORDS,
    PageKind,
)


@pytest.fixture
def db():
    database = IpInfoDatabase()
    database.register_prefix("10.1.0.0/16", 64501, "HostCo", "US")
    database.register_prefix("10.2.0.0/16", 64502, "RheinHosting", "DE")
    return database


class TestPrefixDefaults:
    def test_lookup_inherits_prefix(self, db):
        meta = db.lookup("10.1.5.5")
        assert meta.asn == 64501
        assert meta.as_name == "HostCo"
        assert meta.country == "US"

    def test_unknown_address(self, db):
        meta = db.lookup("172.31.0.1")
        assert meta.asn == IpInfoDatabase.UNKNOWN_ASN
        assert meta.country == "ZZ"

    def test_longest_prefix_wins(self, db):
        db.register_prefix("10.1.7.0/24", 64999, "SubTenant", "NL")
        assert db.lookup("10.1.7.9").asn == 64999
        assert db.lookup("10.1.8.9").asn == 64501

    def test_invalid_address_raises(self, db):
        with pytest.raises(Exception):
            db.lookup("999.1.1.1")


class TestHostOverrides:
    def test_register_host_merges_prefix_defaults(self, db):
        db.register_host("10.1.5.5", cert_org="Example Inc")
        meta = db.lookup("10.1.5.5")
        assert meta.cert_org == "Example Inc"
        assert meta.asn == 64501

    def test_register_host_takes_as_and_country_from_its_prefix(self, db):
        db.register_host("10.2.5.6", cert_org="Custom")
        meta = db.lookup("10.2.5.6")
        assert (meta.asn, meta.as_name, meta.country) == (
            64502,
            "RheinHosting",
            "DE",
        )

    def test_accessors(self, db):
        db.register_host(
            "10.2.1.1", cert_org="X", http=HttpPage.parked()
        )
        assert db.lookup("10.2.1.1").country == "DE"
        assert db.lookup("10.2.1.1").cert_org == "X"
        assert db.lookup("10.2.1.1").http.kind is PageKind.PARKED
        assert db.lookup("10.2.9.9").cert_org is None


class TestHttpPage:
    def test_none_page(self):
        page = HttpPage.none()
        assert page.kind is PageKind.NONE
        assert page.status == 0

    def test_parked_page_matches_keywords(self):
        page = HttpPage.parked()
        assert page.contains_keywords(PAGE_KEYWORDS[PageKind.PARKED])

    def test_redirect_page_matches_keywords(self):
        page = HttpPage.redirect()
        assert page.contains_keywords(PAGE_KEYWORDS[PageKind.REDIRECT])

    def test_warning_page_mentions_provider(self):
        page = HttpPage.warning("ClouDNS")
        assert "ClouDNS" in page.body
        assert page.kind is PageKind.WARNING

    def test_normal_page_matches_nothing(self):
        page = HttpPage(status=200, title="Shop", body="Buy things")
        for keywords in PAGE_KEYWORDS.values():
            assert not page.contains_keywords(keywords)

    def test_keyword_match_case_insensitive(self):
        page = HttpPage(status=200, title="PARKED DOMAIN", body="")
        assert page.contains_keywords(PAGE_KEYWORDS[PageKind.PARKED])
