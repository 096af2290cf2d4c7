"""Tests for the future-work extension the CLI exposes: the MX sweep
(paper §6, "Limitations and future work")."""

import pytest

from repro.core import HunterConfig, URCategory, URHunter
from repro.core.collector import DEFAULT_QUERY_TYPES
from repro.dns.rdata import RRType

MX_CONFIG = HunterConfig(
    query_types=(RRType.A, RRType.TXT, RRType.MX)
)


class TestMxSweep:
    @pytest.fixture(scope="class")
    def mx_report(self, small_world):
        hunter = URHunter.from_world(small_world, MX_CONFIG)
        return hunter.run(validate=False)

    def test_mx_urs_collected(self, mx_report):
        mx_entries = [
            entry
            for entry in mx_report.classified
            if entry.record.rrtype == RRType.MX
        ]
        assert mx_entries

    def test_legitimate_mx_excluded_as_correct(self, mx_report):
        """Fleet-wide-served legit MX records match the correct DB."""
        mx_correct = [
            entry
            for entry in mx_report.classified
            if entry.record.rrtype == RRType.MX
            and entry.category is URCategory.CORRECT
        ]
        assert mx_correct

    def test_attacker_mx_flagged_via_cohost_join(
        self, small_world, mx_report
    ):
        attacker_mx = [
            entry
            for entry in mx_report.classified
            if entry.record.rrtype == RRType.MX
            and (
                entry.record.domain,
                entry.record.rrtype,
                entry.record.rdata_text,
            )
            in small_world.attacker_identities
        ]
        if not attacker_mx:
            pytest.skip("seed produced no attacker MX URs")
        # The co-hosted A join provides corresponding IPs whenever a
        # *suspicious* A UR shares the (domain, nameserver) pair; if the
        # A record was excluded upstream (e.g. the geo condition), the
        # MX legitimately stays IP-less.
        suspicious_a_pairs = {
            (entry.record.domain, entry.record.nameserver_ip)
            for entry in mx_report.suspicious
            if entry.record.rrtype == RRType.A
        }
        for entry in attacker_mx:
            pair = (entry.record.domain, entry.record.nameserver_ip)
            if pair in suspicious_a_pairs:
                assert entry.corresponding_ips
            else:
                assert not entry.corresponding_ips

    def test_default_sweep_has_no_mx(self, small_report):
        assert not any(
            entry.record.rrtype == RRType.MX
            for entry in small_report.classified
        )

    def test_default_query_types(self):
        assert DEFAULT_QUERY_TYPES == (RRType.A, RRType.TXT)
