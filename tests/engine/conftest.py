"""Shared fixtures: a tiny network the engine can be pointed at."""

import pytest

from repro.dns.server import AuthoritativeServer
from repro.dns.zone import zone_from_records
from repro.net.network import SimulatedInternet

SCANNER = "203.0.113.53"
NS_LIVE = "10.0.0.1"
NS_LIVE2 = "10.0.0.2"
NS_DEAD = "10.0.0.66"


@pytest.fixture
def make_network():
    """Factory for identical fresh networks (determinism comparisons)."""

    def build() -> SimulatedInternet:
        net = SimulatedInternet()
        for address, host in ((NS_LIVE, "ns1"), (NS_LIVE2, "ns2")):
            server = AuthoritativeServer(f"{host}.host.test")
            server.load_zone(
                zone_from_records(
                    "example.test",
                    [
                        ("example.test", "A", "10.1.0.1"),
                        ("example.test", "TXT", '"hello"'),
                    ],
                )
            )
            net.register_dns_host(address, server)
        net.register_dns_host(
            NS_DEAD, AuthoritativeServer("ns3.host.test")
        )
        net.set_online(NS_DEAD, False)
        net.register_stub(SCANNER)
        return net

    return build


@pytest.fixture
def network(make_network):
    """Two live authoritative servers and one dead one."""
    return make_network()
