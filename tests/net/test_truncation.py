"""Tests for UDP truncation and TCP fallback."""

import pytest

from repro.dns.message import Message, Rcode
from repro.dns.rdata import RRType
from repro.net.network import MAX_UDP_PAYLOAD


def _query():
    return Message.make_query(
        "big.example", RRType.TXT, recursion_desired=False
    )


class TestTruncation:
    def test_udp_response_truncated(self, big_zone_network):
        response = big_zone_network.query_dns(
            "10.9.9.9", "10.0.0.1", _query(), transport="udp"
        )
        assert response.header.truncated
        assert response.answers == []
        assert response.header.rcode == Rcode.NOERROR

    def test_tcp_carries_full_response(self, big_zone_network):
        response = big_zone_network.query_dns(
            "10.9.9.9", "10.0.0.1", _query(), transport="tcp"
        )
        assert not response.header.truncated
        assert len(response.answers) == 6

    def test_auto_retries_over_tcp(self, big_zone_network):
        response = big_zone_network.query_dns_auto(
            "10.9.9.9", "10.0.0.1", _query()
        )
        assert not response.header.truncated
        assert len(response.answers) == 6

    def test_truncation_counted(self, big_zone_network):
        big_zone_network.query_dns_auto("10.9.9.9", "10.0.0.1", _query())
        assert big_zone_network.stats["truncated_responses"] == 1
        # auto made two queries: the truncated UDP one and the TCP retry.
        assert big_zone_network.stats["dns_queries"] == 2

    def test_small_responses_unaffected(self, big_zone_network):
        query = Message.make_query(
            "big.example", RRType.SOA, recursion_desired=False
        )
        response = big_zone_network.query_dns(
            "10.9.9.9", "10.0.0.1", query, transport="udp"
        )
        assert not response.header.truncated

    def test_unknown_transport_rejected(self, big_zone_network):
        with pytest.raises(ValueError):
            big_zone_network.query_dns(
                "10.9.9.9", "10.0.0.1", _query(), transport="quic"
            )

    def test_threshold_is_rfc1035(self):
        assert MAX_UDP_PAYLOAD == 512


class TestPipelineWithBigRecords:
    def test_collector_retrieves_truncated_urs(self, big_zone_network):
        """Stage 1 must not lose URs behind UDP truncation."""
        from repro.core.collector import DomainTarget, NameserverTarget
        from repro.dns.name import name

        from ..conftest import bare_hunter

        hunter = bare_hunter(
            big_zone_network,
            [NameserverTarget("10.0.0.1", "BigHost")],
            [DomainTarget(name("big.example"), 1)],
        )
        result = hunter.stage1_collect()
        txt_urs = [
            record
            for record in result.undelegated
            if record.rrtype == RRType.TXT
        ]
        assert len(txt_urs) == 6
