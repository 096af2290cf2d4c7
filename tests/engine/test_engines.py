"""Behavioral tests for the scan engine over the simulated internet."""

import pytest

from repro.dns.message import Rcode
from repro.dns.rdata import RRType
from repro.engine import (
    BatchedEngine,
    EnginePolicy,
    OutcomeStatus,
)
from repro.engine.breaker import CircuitBreaker, CircuitState
from repro.net.traffic import Protocol, TrafficCapture

from ..conftest import drive, query
from .conftest import NS_DEAD, NS_LIVE, SCANNER


def _engine(network, server_ip, phase="ur", **policy):
    return BatchedEngine(
        network, SCANNER, server_ip, phase, EnginePolicy(**policy)
    )


class TestAnsweredPath:
    def test_single_answer(self, network):
        engine = _engine(network, NS_LIVE)
        [outcome] = drive(engine, [query()])
        assert outcome.status is OutcomeStatus.ANSWERED
        assert outcome.answered
        assert outcome.attempts == 1
        assert outcome.response.header.rcode == Rcode.NOERROR
        counters = engine.metrics.stage("ur")
        assert counters.queries == 1
        assert counters.responses == 1
        assert engine.metrics.latency.total == 1

    def test_outcomes_in_query_order(self, network):
        engine = _engine(network, NS_LIVE)
        queries = [
            query(),
            query(RRType.TXT),
            query(),
            query(RRType.TXT),
        ]
        outcomes = drive(engine, queries)
        assert [outcome.response.question for outcome in outcomes] == [
            sent.question for sent in queries
        ]
        assert all(outcome.answered for outcome in outcomes)

    def test_empty_query_list(self, network):
        engine = _engine(network, NS_LIVE)
        before = network.now
        assert drive(engine, []) == []
        assert engine.metrics.stage(engine.phase).queries == 0
        assert network.now == before

    def test_one_engine_counts_one_phase(self, network):
        engine = _engine(network, NS_LIVE, phase="protective")
        drive(engine, [query()] * 2)
        drive(engine, [query()])
        assert list(engine.metrics.stages) == ["protective"]
        assert engine.metrics.stage("protective").queries == 3


class TestRetryAndTimeout:
    def test_dead_server_clock_accounting(self, network):
        """A dead server costs (retries+1) timeouts plus the backoffs."""
        engine = _engine(network, NS_DEAD, retries=2, timeout=5.0)
        before = network.now
        [outcome] = drive(engine, [query()])
        assert outcome.status is OutcomeStatus.GAVE_UP
        assert outcome.attempts == 3
        # 3 x 5s timeouts + 0.5s + 1.0s backoffs (plus wire latency)
        assert network.now - before == pytest.approx(16.5, abs=0.1)

    def test_timeouts_counted_per_attempt(self, network):
        engine = _engine(network, NS_DEAD, retries=1)
        engine.breaker = CircuitBreaker(failure_threshold=100)
        drive(engine, [query(), query(RRType.TXT)])
        counters = engine.metrics.stage("ur")
        assert counters.queries == 4
        assert counters.timeouts == 4
        assert counters.retries == 2
        assert counters.giveups == 2

    def test_give_up_is_yielded_before_its_timeout_is_waited_out(
        self, network
    ):
        engine = _engine(network, NS_DEAD, retries=0, timeout=5.0)
        before = network.now
        stream = engine.execute_iter(
            [query(), query(RRType.TXT)]
        )
        index, outcome = next(stream)
        assert (index, outcome.status) == (0, OutcomeStatus.GAVE_UP)
        assert network.now - before < 1.0
        assert outcome.completed_at == pytest.approx(before + 5.0, abs=0.1)
        # the lane's next query is sent once the timeout has passed
        index, outcome = next(stream)
        assert (index, outcome.status) == (1, OutcomeStatus.GAVE_UP)
        assert network.now - before == pytest.approx(5.0, abs=0.1)
        assert outcome.completed_at == pytest.approx(before + 10.0, abs=0.1)


class TestCircuitBreaking:
    def test_circuit_opens_and_skips(self, network):
        engine = _engine(network, NS_DEAD, retries=0)
        assert engine.breaker.failure_threshold == 5
        queries = [
            query(qtype)
            for qtype in (RRType.A, RRType.TXT)
            for _ in range(5)
        ]
        outcomes = drive(engine, queries)
        statuses = [outcome.status for outcome in outcomes]
        assert statuses.count(OutcomeStatus.GAVE_UP) == 5
        assert statuses.count(OutcomeStatus.SKIPPED) == 5
        assert engine.breaker.state(NS_DEAD) is CircuitState.OPEN
        counters = engine.metrics.stage("ur")
        assert counters.queries == 5  # the wire was spared 5 sends
        assert counters.skipped == 5

    def test_circuit_recovers_after_reset(self, network):
        """OPEN -> HALF_OPEN probe -> CLOSED once the server heals."""
        engine = _engine(network, NS_LIVE, retries=0)
        engine.breaker = CircuitBreaker(
            failure_threshold=3, reset_interval=60.0
        )
        network.set_online(NS_LIVE, False)
        first = drive(engine, [query() for _ in range(5)])
        assert engine.breaker.state(NS_LIVE) is CircuitState.OPEN
        assert [outcome.status for outcome in first[3:]] == [
            OutcomeStatus.SKIPPED,
            OutcomeStatus.SKIPPED,
        ]

        network.set_online(NS_LIVE, True)
        network.tick(60.0)
        second = drive(engine, [query() for _ in range(3)])
        assert all(outcome.answered for outcome in second)
        assert engine.breaker.state(NS_LIVE) is CircuitState.CLOSED


class TestPacing:
    def test_per_server_gap_never_violated(self, network):
        interval = 130.0
        engine = _engine(network, NS_LIVE, per_server_interval=interval)
        queries = [
            query(qtype)
            for qtype in (RRType.A, RRType.TXT)
            for _ in range(2)
        ]
        with network.capturing(TrafficCapture()) as capture:
            drive(engine, queries)
        stamps = sorted(
            flow.timestamp
            for flow in capture.filter(protocol=Protocol.DNS)
            if flow.src == SCANNER and flow.dst == NS_LIVE
        )
        assert len(stamps) == 4
        gaps = [later - earlier for earlier, later in zip(stamps, stamps[1:])]
        assert all(gap >= interval - 1e-6 for gap in gaps)

    def test_pacing_wait_is_accounted(self, network):
        """Three tokens at 130 s cost two intervals — the first send
        goes at once — and every second of it is accounted."""
        engine = _engine(network, NS_LIVE, per_server_interval=130.0)
        before = network.now
        drive(engine, [query()] * 3)
        assert network.now - before == pytest.approx(260.0, abs=1.0)
        assert engine.metrics.stage("ur").rate_limit_wait == pytest.approx(
            260.0, abs=1.0
        )

    def test_pacing_carries_across_drives(self, network):
        """The lane's one bucket outlives a drive: a second drive right
        after the first waits out the interval from the last send."""
        engine = _engine(network, NS_LIVE, per_server_interval=130.0)
        before = network.now
        drive(engine, [query()])
        drive(engine, [query()])
        assert network.now - before == pytest.approx(130.0, abs=1.0)
        assert engine.metrics.stage("ur").rate_limit_wait == pytest.approx(
            130.0, abs=1.0
        )

    def test_idle_lane_sends_at_once(self, network):
        """A lane idle for longer than its interval has refilled its
        token: the next drive sends without a pacing wait."""
        engine = _engine(network, NS_LIVE, per_server_interval=130.0)
        drive(engine, [query()])
        network.tick(200.0)
        before = network.now
        [outcome] = drive(engine, [query()])
        assert outcome.answered
        assert network.now - before < 1.0
        assert engine.metrics.stage("ur").rate_limit_wait == 0.0
