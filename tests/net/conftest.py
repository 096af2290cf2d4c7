"""Fixtures shared by the transport tests."""

import pytest

from repro.dns.rdata import TXT
from repro.dns.server import AuthoritativeServer
from repro.dns.zone import Zone
from repro.net.network import SimulatedInternet


@pytest.fixture
def big_zone_network():
    """A zone whose TXT RRset cannot fit a 512-byte UDP response."""
    network = SimulatedInternet()
    zone = Zone("big.example")
    for index in range(6):
        zone.add(
            "big.example", TXT.from_value(f"{index:02d}-" + "x" * 200)
        )
    server = AuthoritativeServer("ns1.big.example")
    server.load_zone(zone)
    network.register_dns_host("10.0.0.1", server)
    return network
