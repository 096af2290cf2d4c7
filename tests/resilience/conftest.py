"""Shared fixtures: a tiny network the engine can be pointed at, and a
scripted single-server lane."""

import pytest

from repro.dns.server import AuthoritativeServer
from repro.dns.zone import zone_from_records
from repro.engine import BatchedEngine, EnginePolicy
from repro.engine.breaker import CircuitBreaker
from repro.net.network import SimulatedInternet

from ..conftest import drive, query

SCANNER = "203.0.113.53"
NS_LIVE = "10.0.0.1"
NS_LIVE2 = "10.0.0.2"
NS_DEAD = "10.0.0.66"


class ScriptedServer:
    """A nameserver that drops the sends its script says to drop and
    answers the others after the extra delay its script gives — both by
    send number, not by time, so two runs that wait differently still
    lose the same sends — and logs when each send arrived."""

    def __init__(self, losses=(), delays=()):
        self._losses = list(losses)
        self._delays = list(delays)
        self.arrivals = []

    def handle_dns_query(self, query, src_ip, network, query_key=None):
        send = len(self.arrivals)
        self.arrivals.append(network.now)
        if send < len(self._losses) and self._losses[send]:
            return None
        if send < len(self._delays):
            network.tick(self._delays[send])
        return query.make_response()


def run_lane(
    losses=(), delays=(), tasks=1, hedge_delay=0.0, interval=0.0, aimd=None
):
    """Drive ``tasks`` queries down one scripted server's lane; returns
    ``(engine, server, outcomes)``."""
    network = SimulatedInternet()
    server = ScriptedServer(losses, delays)
    network.register_dns_host(NS_LIVE, server)
    network.register_stub(SCANNER)
    engine = BatchedEngine(
        network,
        SCANNER,
        NS_LIVE,
        "ur",
        EnginePolicy(per_server_interval=interval, retries=2),
    )
    # the breaker re-opens on the clock, which every wait moves: keep it
    # out of properties about the waits alone
    engine.breaker = CircuitBreaker(failure_threshold=10**6)
    engine.hedge_delay = hedge_delay
    engine.aimd = aimd
    outcomes = drive(engine, [query() for _ in range(tasks)])
    return engine, server, outcomes


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
