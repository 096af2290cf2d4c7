"""Fault injection in the simulated network, and how the engine rides it."""

import pytest

from repro.dns.message import Message
from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.engine import BatchedEngine, EnginePolicy, QueryTask
from repro.net.network import FaultProfile, NetworkError

from .conftest import NS_LIVE, NS_LIVE2, SCANNER


def _query():
    return Message.make_query(
        "example.test", RRType.A, recursion_desired=False
    )


class TestFaultProfile:
    def test_inactive_by_default(self):
        assert not FaultProfile().active

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultProfile(loss_rate=1.5)
        with pytest.raises(ValueError):
            FaultProfile(latency_jitter=-1.0)

    def test_flap_windows_phase_locked(self):
        profile = FaultProfile(flap_up=20.0, flap_down=40.0)
        assert not profile.flapped_down(0.0)
        assert not profile.flapped_down(19.9)
        assert profile.flapped_down(20.0)
        assert profile.flapped_down(59.9)
        assert not profile.flapped_down(60.0)


class TestInjectedLoss:
    def test_full_loss_drops_everything(self, network):
        network.inject_faults(loss_rate=0.999999, seed=1)
        with pytest.raises(NetworkError):
            network.query_dns(SCANNER, NS_LIVE, _query())
        assert network.stats["injected_losses"] == 1

    def test_loss_is_deterministic_per_seed(self, make_network):
        def outcomes(seed):
            net = make_network()
            net.inject_faults(loss_rate=0.5, seed=seed)
            results = []
            for _ in range(20):
                try:
                    net.query_dns(SCANNER, NS_LIVE, _query())
                    results.append(True)
                except NetworkError:
                    results.append(False)
            return results

        assert outcomes(3) == outcomes(3)
        assert outcomes(3) != outcomes(4)

    def test_clear_faults_restores_service(self, network):
        network.inject_faults(loss_rate=0.999999, seed=1)
        network.clear_faults()
        assert network.query_dns(SCANNER, NS_LIVE, _query()) is not None

    def test_per_server_profile_takes_precedence(self, network):
        network.inject_faults(loss_rate=0.999999, seed=1)
        network.set_server_faults(NS_LIVE2, latency_jitter=0.001)
        # NS_LIVE2 has its own (lossless) profile; NS_LIVE drops.
        assert network.query_dns(SCANNER, NS_LIVE2, _query()) is not None
        with pytest.raises(NetworkError):
            network.query_dns(SCANNER, NS_LIVE, _query())


class TestLatencyJitter:
    def test_jitter_stretches_the_clock(self, make_network):
        plain, jittered = make_network(), make_network()
        plain.query_dns(SCANNER, NS_LIVE, _query())
        jittered.inject_faults(latency_jitter=2.0, seed=5)
        jittered.query_dns(SCANNER, NS_LIVE, _query())
        assert jittered.now > plain.now


class TestFlappingServer:
    def test_down_window_rejects_queries(self, network):
        network.set_server_faults(NS_LIVE, flap_up=20.0, flap_down=40.0)
        assert network.query_dns(SCANNER, NS_LIVE, _query()) is not None
        network.tick(25.0)  # into the dead window
        with pytest.raises(NetworkError):
            network.query_dns(SCANNER, NS_LIVE, _query())
        assert network.stats["flap_drops"] == 1
        network.tick(40.0)  # back into the up window
        assert network.query_dns(SCANNER, NS_LIVE, _query()) is not None


class TestEnginesUnderLoss:
    def test_retries_recover_most_losses(self, make_network):
        net = make_network()
        net.inject_faults(loss_rate=0.3, seed=9)
        policy = EnginePolicy(retries=4, circuit_failure_threshold=50)
        engine = BatchedEngine(net, SCANNER, policy=policy)
        tasks = [
            QueryTask(
                server_ip=server,
                qname=name("example.test"),
                qtype=RRType.A,
            )
            for server in (NS_LIVE, NS_LIVE2)
            for _ in range(20)
        ]
        outcomes = engine.execute(tasks)
        answered = sum(1 for outcome in outcomes if outcome.answered)
        counters = engine.metrics.stage("ur")
        # 30% loss with a 4-retry budget: nearly everything lands.
        assert answered >= 38
        assert counters.retries > 0
        assert counters.queries > len(tasks)

    def test_batched_is_deterministic_under_loss(self, make_network):
        def run():
            net = make_network()
            net.inject_faults(loss_rate=0.4, seed=21)
            engine = BatchedEngine(
                net, SCANNER, policy=EnginePolicy(retries=2)
            )
            outcomes = engine.execute(
                [
                    QueryTask(
                        server_ip=NS_LIVE,
                        qname=name("example.test"),
                        qtype=RRType.A,
                    )
                    for _ in range(15)
                ]
            )
            counters = engine.metrics.stage("ur")
            return (
                [outcome.status for outcome in outcomes],
                counters.queries,
                counters.retries,
                net.now,
            )

        assert run() == run()
