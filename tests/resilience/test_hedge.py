"""Hedged retries: unit behaviour plus engine-level fire/win/waste."""

import json

import pytest

from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.engine import (
    BatchedEngine,
    EnginePolicy,
    OutcomeStatus,
    QueryTask,
)
from repro.engine.latency import ServerLatency
from repro.net.network import FaultProfile
from repro.obs import RunTrace
from repro.resilience import HedgeController

from .conftest import NS_LIVE, SCANNER


def _task(server_ip, qtype=RRType.A, stage="ur"):
    return QueryTask(
        server_ip=server_ip,
        qname=name("example.test"),
        qtype=qtype,
        stage=stage,
    )


class TestHedgeControllerUnit:
    def test_base_delay_used_before_observations(self):
        hedge = HedgeController(base_delay=0.25, timeout=5.0)
        assert hedge.delay(ServerLatency().mean("10.0.0.1")) == (
            pytest.approx(0.25)
        )

    def test_delay_tracks_observed_latency(self):
        hedge = HedgeController(base_delay=0.05, timeout=5.0)
        observed = ServerLatency()
        for _ in range(4):
            observed.observe("10.0.0.1", 0.2)
        # 3x the observed mean, well above the floor
        assert hedge.delay(observed.mean("10.0.0.1")) == pytest.approx(0.6)
        # a server never observed still gets the floor
        assert hedge.delay(observed.mean("10.0.0.2")) == pytest.approx(0.05)

    def test_delay_capped_below_timeout_fraction(self):
        hedge = HedgeController(base_delay=0.05, timeout=5.0)
        assert hedge.delay(100.0) < 2.5

    def test_floor_clamped_below_ceiling(self):
        # a base delay at/above timeout/2 would never hedge usefully;
        # the controller clamps rather than crossing the timeout
        hedge = HedgeController(base_delay=4.0, timeout=5.0)
        assert hedge.delay(0.0) < 2.5


class _HedgeHarness:
    """One lossy-window server run with hedging attached."""

    def __init__(self, make_network, outage, delay=0.25):
        self.network = make_network()
        if outage > 0:
            # outage: loss window [0, outage) on the live server
            self.network.add_fault_window(
                NS_LIVE, FaultProfile(loss_rate=1.0, duration=outage)
            )
        self.engine = BatchedEngine(
            self.network,
            SCANNER,
            EnginePolicy(per_server_interval=0.0, retries=2),
        )
        self.engine.hedge = HedgeController(base_delay=delay, timeout=5.0)
        self.trace = RunTrace()
        self.engine.trace = self.trace
        self.outcomes = self.engine.execute([_task(NS_LIVE)])

    def events(self, event_name):
        return [
            json.loads(line)
            for line in self.trace.deterministic_lines()
            if json.loads(line).get("event") == event_name
        ]


class TestEngineHedging:
    def test_hedge_wins_when_outage_is_short(self, make_network):
        # first attempt at t=0 drops; the 0.25s hedge lands after the
        # 0.1s outage window closes — a win, not a 5s timeout park
        harness = _HedgeHarness(make_network, outage=0.1)
        [outcome] = harness.outcomes
        assert outcome.status is OutcomeStatus.ANSWERED
        resilience = harness.engine.resilience
        assert resilience.hedges_fired == 1
        assert resilience.hedges_won == 1
        assert resilience.hedges_wasted == 0
        assert harness.events("hedge.fired")
        assert harness.events("hedge.won")
        # the whole exchange stayed far below one timeout window
        assert harness.network.now < 1.0

    def test_hedge_is_accounted_as_a_retry(self, make_network):
        harness = _HedgeHarness(make_network, outage=0.1)
        counters = harness.engine.metrics.stage("ur")
        assert counters.queries == 2
        assert counters.responses == 1
        assert counters.timeouts == 1
        assert counters.retries == 1
        # loss ledger closes: queries == responses + timeouts
        assert counters.queries == counters.responses + counters.timeouts

    def test_hedge_wasted_when_outage_outlasts_it(self, make_network):
        # outage covers the hedge too; only the post-timeout retry lands
        harness = _HedgeHarness(make_network, outage=4.0)
        [outcome] = harness.outcomes
        assert outcome.status is OutcomeStatus.ANSWERED
        resilience = harness.engine.resilience
        assert resilience.hedges_fired == 1
        assert resilience.hedges_won == 0
        assert resilience.hedges_wasted == 1
        assert harness.events("hedge.wasted")

    def test_no_hedge_on_healthy_server(self, make_network):
        harness = _HedgeHarness(make_network, outage=0.0)
        assert harness.engine.resilience.hedges_fired == 0
        assert not harness.engine.resilience.active
