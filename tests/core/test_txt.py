"""Tests for repro.core.txt: TXT classification and IP extraction."""

import pytest
from hypothesis import given, strategies as st

from repro.core.txt import (
    TxtCategory,
    classify_txt,
    extract_ips,
)


class TestClassification:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("v=spf1 ip4:1.2.3.4 -all", TxtCategory.SPF),
            ("V=SPF1 include:_spf.example.com ~all", TxtCategory.SPF),
            ("v=DMARC1; p=reject; rua=mailto:x@y.z", TxtCategory.DMARC),
            ("v=DKIM1; k=rsa; p=MIGfMA0GCSq", TxtCategory.DKIM),
            (
                "google-site-verification=abc123",
                TxtCategory.VERIFICATION,
            ),
            ("ms-domain-verification=xyz", TxtCategory.VERIFICATION),
            (
                "p=" + "A" * 32,
                TxtCategory.KEY_EXCHANGE,
            ),
            ("v=parked; nothing here", TxtCategory.PROVIDER_NOTICE),
            ("this domain is not hosted at ClouDNS", TxtCategory.PROVIDER_NOTICE),
            ("cmd=4f2a9; k=deadbeef", TxtCategory.OTHER),
            ("", TxtCategory.OTHER),
        ],
    )
    def test_categories(self, value, expected):
        assert classify_txt(value) == expected

    def test_spf_beats_other_patterns(self):
        # An SPF record containing "verify" in a macro is still SPF.
        assert classify_txt("v=spf1 exists:verify.%{i}.x -all") == TxtCategory.SPF


class TestIpExtraction:
    def test_spf_ip4_mechanisms(self):
        ips = extract_ips("v=spf1 ip4:192.0.2.1 ip4:192.0.2.2/31 -all")
        assert ips == ["192.0.2.1", "192.0.2.2"]

    def test_bare_dotted_quads(self):
        assert extract_ips("connect to 198.51.100.7 now") == ["198.51.100.7"]

    def test_mixed_and_deduped(self):
        ips = extract_ips("v=spf1 ip4:1.2.3.4 -all; backup 1.2.3.4 5.6.7.8")
        assert ips == ["1.2.3.4", "5.6.7.8"]

    def test_invalid_octets_ignored(self):
        assert extract_ips("not an ip 999.1.2.3") == []
        assert extract_ips("version 1.2.3.4.5 string") == []

    def test_no_ips(self):
        assert extract_ips("hello world") == []

    def test_boundary_values(self):
        assert extract_ips("x 255.255.255.255 y") == ["255.255.255.255"]
        assert extract_ips("x 0.0.0.0 y") == ["0.0.0.0"]


@given(st.text(max_size=300))
def test_classify_never_crashes(value):
    assert classify_txt(value) in {
        TxtCategory.SPF,
        TxtCategory.DKIM,
        TxtCategory.DMARC,
        TxtCategory.VERIFICATION,
        TxtCategory.KEY_EXCHANGE,
        TxtCategory.PROVIDER_NOTICE,
        TxtCategory.OTHER,
    }


@given(st.text(max_size=300))
def test_extract_ips_returns_valid_addresses(value):
    for address in extract_ips(value):
        octets = address.split(".")
        assert len(octets) == 4
        assert all(0 <= int(octet) <= 255 for octet in octets)
