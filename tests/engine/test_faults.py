"""Fault injection in the simulated network, and how the engine rides it."""

import pytest

from repro.dns.message import Message
from repro.dns.rdata import RRType
from repro.engine import BatchedEngine, EnginePolicy
from repro.engine.breaker import CircuitBreaker
from repro.net.network import FaultProfile, NetworkError

from ..conftest import drive, query
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

    def test_window_opens_and_closes(self):
        profile = FaultProfile(loss_rate=1.0, start=20.0, duration=40.0)
        assert not profile.active_at(19.9)
        assert profile.active_at(20.0)
        assert profile.active_at(59.9)
        assert not profile.active_at(60.0)


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

    def test_windows_stack_ahead_of_the_network_wide_profile(
        self, network
    ):
        network.inject_faults(loss_rate=0.999999, seed=1)
        window = FaultProfile(latency_jitter=0.001)
        network.add_fault_window(NS_LIVE2, window)
        (lossy,) = network.fault_profiles(NS_LIVE)
        assert network.fault_profiles(NS_LIVE2) == [window, lossy]
        # the window does not shield NS_LIVE2 from the loss
        with pytest.raises(NetworkError):
            network.query_dns(SCANNER, NS_LIVE2, _query())


class TestLatencyJitter:
    def test_jitter_stretches_the_clock(self, make_network):
        plain, jittered = make_network(), make_network()
        plain.query_dns(SCANNER, NS_LIVE, _query())
        jittered.add_fault_window(NS_LIVE, FaultProfile(latency_jitter=2.0))
        jittered.query_dns(SCANNER, NS_LIVE, _query())
        assert jittered.now > plain.now


class TestFlappingServer:
    def test_down_window_rejects_queries(self, network):
        network.add_fault_window(
            NS_LIVE, FaultProfile(loss_rate=1.0, start=20.0, duration=40.0)
        )
        assert network.query_dns(SCANNER, NS_LIVE, _query()) is not None
        network.tick(25.0)  # into the dead window
        with pytest.raises(NetworkError):
            network.query_dns(SCANNER, NS_LIVE, _query())
        assert network.stats["injected_losses"] == 1
        network.tick(40.0)  # back into the up window
        assert network.query_dns(SCANNER, NS_LIVE, _query()) is not None


class TestEnginesUnderLoss:
    def test_retries_recover_most_losses(self, make_network):
        net = make_network()
        net.inject_faults(loss_rate=0.3, seed=9)
        outcomes, queries, retries = [], 0, 0
        # one lane after the other, each on its own engine
        for server in (NS_LIVE, NS_LIVE2):
            engine = BatchedEngine(
                net, SCANNER, server, "ur", EnginePolicy(retries=4)
            )
            engine.breaker = CircuitBreaker(failure_threshold=50)
            outcomes += drive(engine, [query() for _ in range(20)])
            counters = engine.metrics.stage("ur")
            queries += counters.queries
            retries += counters.retries
        answered = sum(1 for outcome in outcomes if outcome.answered)
        # 30% loss with a 4-retry budget: nearly everything lands.
        assert answered >= 38
        assert retries > 0
        assert queries > len(outcomes)

    def test_batched_is_deterministic_under_loss(self, make_network):
        def run():
            net = make_network()
            net.inject_faults(loss_rate=0.4, seed=21)
            engine = BatchedEngine(
                net, SCANNER, NS_LIVE, "ur", EnginePolicy(retries=2)
            )
            outcomes = drive(engine, [query() for _ in range(15)])
            counters = engine.metrics.stage("ur")
            return (
                [outcome.status for outcome in outcomes],
                counters.queries,
                counters.retries,
                net.now,
            )

        assert run() == run()
