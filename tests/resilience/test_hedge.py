"""Hedged retries: the timer read off the lane, plus engine-level
fire/win/waste."""

import pytest

from repro.engine import (
    BatchedEngine,
    EnginePolicy,
    OutcomeStatus,
)
from repro.engine.latency import CLOCK_GRANULARITY, ServerLatency
from repro.net.network import FaultProfile
from repro.resilience import ResilienceMetrics

from ..conftest import drive, query
from .conftest import NS_LIVE, SCANNER, run_lane


def _parks(engine, server):
    """The wait between learning each send's fate and the next send:
    after a lost send on an unpaced lane, the retry timer that was in
    force."""
    return [
        later - earlier - engine.network.latency
        for earlier, later in zip(server.arrivals, server.arrivals[1:])
    ]


class TestHedgeControllerUnit:
    """The hedge timer and the retry timer behind it, read off the
    lane: ``min(configured, SRTT + max(G, 4 RTTVAR))``."""

    def test_base_delay_used_before_observations(self):
        # no answer yet: the configured hedge delay, then the timeout
        engine, server, _ = run_lane([True, True, False], hedge_delay=0.25)
        assert _parks(engine, server) == pytest.approx([0.25, 5.0])

    def test_delay_tracks_observed_latency(self):
        # four answers in 0.2 s: SRTT 0.2, RTTVAR 0.1 * (3/4)**3
        rto = 0.2 + 4 * 0.1 * 0.75**3
        engine, server, outcomes = run_lane(
            [False] * 4 + [True] * 3,
            delays=[0.19] * 4,
            tasks=5,
            hedge_delay=0.5,
        )
        observed = ServerLatency()
        for _ in range(4):
            observed.observe(0.2)
        assert observed.srtt() == pytest.approx(0.2)
        assert observed.rto() == pytest.approx(rto)
        # the hedge fires at the timer, the retry waits it again, and
        # the give-up its double: the doubling is the backoff
        assert _parks(engine, server)[4:] == pytest.approx([rto, rto])
        assert outcomes[-1].status is OutcomeStatus.GAVE_UP
        assert outcomes[-1].completed_at - server.arrivals[-1] == (
            pytest.approx(2 * rto)
        )

    def test_delay_capped_at_hedge_delay_then_timeout(self):
        # a server three seconds away: the timer would be nine
        engine, server, _ = run_lane(
            [False, True, True, False],
            delays=[2.99],
            tasks=2,
            hedge_delay=0.25,
        )
        assert _parks(engine, server)[1:] == pytest.approx([0.25, 5.0])

    def test_floor_clamped_below_ceiling(self):
        # the granularity floor never lifts the hedge timer above the
        # configured delay
        assert 0.004 < CLOCK_GRANULARITY
        engine, server, _ = run_lane(
            [False, True, False], tasks=2, hedge_delay=0.004
        )
        assert _parks(engine, server)[1] == pytest.approx(0.004)

    def test_steady_server_keeps_the_granularity_margin(self):
        observed = ServerLatency()
        # nothing observed: no estimate, so any ceiling wins the min
        assert observed.rto() == float("inf")
        assert observed.srtt() == 0.0
        for _ in range(64):
            observed.observe(0.025)
        assert observed.rto() == pytest.approx(0.025 + CLOCK_GRANULARITY)


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
            NS_LIVE,
            "ur",
            EnginePolicy(per_server_interval=0.0, retries=2),
        )
        self.engine.hedge_delay = delay
        self.outcomes = drive(self.engine, [query()])

    def events(self, event_name):
        return [
            fields
            for event, _, fields in self.engine.events
            if event == event_name
        ]


class TestEngineHedging:
    def test_hedge_wins_when_outage_is_short(self, make_network):
        # first attempt at t=0 drops; the 0.25s hedge lands after the
        # 0.1s outage window closes — a win, not a 5s timeout park
        harness = _HedgeHarness(make_network, outage=0.1)
        [outcome] = harness.outcomes
        assert outcome.status is OutcomeStatus.ANSWERED
        resilience = harness.engine.metrics
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
        resilience = harness.engine.metrics
        assert resilience.hedges_fired == 1
        assert resilience.hedges_won == 0
        assert resilience.hedges_wasted == 1
        assert harness.events("hedge.wasted")

    def test_no_hedge_on_healthy_server(self, make_network):
        harness = _HedgeHarness(make_network, outage=0.0)
        assert harness.engine.metrics.hedges_fired == 0
        assert not ResilienceMetrics(harness.engine.metrics).active

    def test_pure_loss_counts_no_spurious_retransmit(self):
        # a steady server under loss alone: hedges fire, and no answer
        # ever outlasts the timer it was sent under
        losses = [send % 3 == 1 for send in range(60)]
        engine, _, outcomes = run_lane(losses, tasks=30, hedge_delay=0.25)
        assert all(outcome.answered for outcome in outcomes)
        assert engine.metrics.hedges_fired > 0
        assert engine.metrics.spurious_retransmits == 0
