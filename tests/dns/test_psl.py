"""Tests for repro.dns.psl."""

import pytest

from repro.dns.name import name
from repro.dns.psl import DEFAULT_PSL, PublicSuffixList


class TestPublicSuffix:
    def test_plain_tld(self):
        assert DEFAULT_PSL.public_suffix("example.com") == name("com")

    def test_two_level_suffix(self):
        assert DEFAULT_PSL.public_suffix("site.gov.cn") == name("gov.cn")

    def test_longest_match_wins(self):
        # gov.cn is longer than cn.
        assert DEFAULT_PSL.public_suffix("a.b.gov.cn") == name("gov.cn")

    def test_unlisted_tld_implicit_rule(self):
        psl = PublicSuffixList(rules=["com"])
        assert psl.public_suffix("example.unknowntld") == name("unknowntld")

    def test_root_has_no_suffix(self):
        assert DEFAULT_PSL.public_suffix(name(".")) is None


class TestWildcardAndException:
    def test_wildcard_rule(self):
        # *.ck makes foo.ck a public suffix.
        assert DEFAULT_PSL.is_public_suffix("foo.ck")

    def test_exception_rule(self):
        # !www.ck: www.ck is registrable despite *.ck.
        assert not DEFAULT_PSL.is_public_suffix("www.ck")
        assert DEFAULT_PSL.registrable_domain("www.ck") == name("www.ck")

    def test_domain_under_wildcard_suffix(self):
        assert DEFAULT_PSL.registrable_domain("shop.foo.ck") == name(
            "shop.foo.ck"
        )


class TestRegistrableDomain:
    def test_sld(self):
        assert DEFAULT_PSL.registrable_domain("example.com") == name(
            "example.com"
        )

    def test_subdomain_collapses_to_sld(self):
        assert DEFAULT_PSL.registrable_domain("a.b.example.com") == name(
            "example.com"
        )

    def test_etld_plus_one_under_gov_cn(self):
        assert DEFAULT_PSL.registrable_domain("www.beijing.gov.cn") == name(
            "beijing.gov.cn"
        )

    def test_public_suffix_itself_not_registrable(self):
        assert DEFAULT_PSL.registrable_domain("gov.cn") is None
        assert DEFAULT_PSL.registrable_domain("com") is None


class TestIsPublicSuffix:
    @pytest.mark.parametrize(
        "domain", ["com", "gov.cn", "edu.cn", "co.uk", "gov.kp"]
    )
    def test_known_suffixes(self, domain):
        assert DEFAULT_PSL.is_public_suffix(domain)

    @pytest.mark.parametrize(
        "domain", ["example.com", "github.com", "beijing.gov.cn"]
    )
    def test_registrables_are_not_suffixes(self, domain):
        assert not DEFAULT_PSL.is_public_suffix(domain)


class TestCustomRules:
    def test_add_rule_after_construction(self):
        psl = PublicSuffixList(rules=["com"])
        assert not psl.is_public_suffix("city.custom")
        psl.add_rule("custom")
        psl.add_rule("gov.custom")
        assert psl.is_public_suffix("gov.custom")
        assert psl.registrable_domain("x.gov.custom") == name("x.gov.custom")

    def test_blank_rule_ignored(self):
        psl = PublicSuffixList(rules=["com", "   "])
        assert psl.is_public_suffix("com")

    def test_case_insensitive_rules(self):
        psl = PublicSuffixList(rules=["COM"])
        assert psl.is_public_suffix("com")
