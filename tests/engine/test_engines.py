"""Behavioral tests for the scan engine over the simulated internet."""

import pytest

from repro.dns.message import Rcode
from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.engine import (
    BatchedEngine,
    EnginePolicy,
    OutcomeStatus,
    QueryTask,
)
from repro.engine.breaker import CircuitState
from repro.net.traffic import Protocol, TrafficCapture

from .conftest import NS_DEAD, NS_LIVE, NS_LIVE2, SCANNER


def _task(server_ip, qtype=RRType.A, stage="ur"):
    return QueryTask(
        server_ip=server_ip,
        qname=name("example.test"),
        qtype=qtype,
        stage=stage,
    )


class TestAnsweredPath:
    def test_single_answer(self, network):
        engine = BatchedEngine(network, SCANNER)
        [outcome] = engine.execute([_task(NS_LIVE)])
        assert outcome.status is OutcomeStatus.ANSWERED
        assert outcome.answered
        assert outcome.attempts == 1
        assert outcome.response.header.rcode == Rcode.NOERROR
        counters = engine.metrics.stage("ur")
        assert counters.queries == 1
        assert counters.responses == 1
        assert engine.metrics.latency.total == 1

    def test_outcomes_in_task_order(self, network):
        engine = BatchedEngine(network, SCANNER)
        tasks = [
            _task(NS_LIVE),
            _task(NS_LIVE2),
            _task(NS_LIVE, qtype=RRType.TXT),
            _task(NS_LIVE2, qtype=RRType.TXT),
        ]
        outcomes = engine.execute(tasks)
        assert [outcome.task for outcome in outcomes] == tasks
        assert all(outcome.answered for outcome in outcomes)

    def test_empty_task_list(self, network):
        engine = BatchedEngine(network, SCANNER)
        assert engine.execute([]) == []

    def test_stage_buckets_kept_apart(self, network):
        engine = BatchedEngine(network, SCANNER)
        engine.execute(
            [
                _task(NS_LIVE, stage="protective"),
                _task(NS_LIVE2, stage="ur"),
                _task(NS_LIVE, stage="ur"),
            ]
        )
        assert engine.metrics.stage("protective").queries == 1
        assert engine.metrics.stage("ur").queries == 2


class TestRetryAndTimeout:
    def test_dead_server_clock_accounting(self, network):
        """A dead server costs (retries+1) timeouts plus the backoffs."""
        policy = EnginePolicy(
            retries=2, timeout=5.0, backoff_base=0.5, backoff_factor=2.0
        )
        engine = BatchedEngine(network, SCANNER, policy=policy)
        before = network.now
        [outcome] = engine.execute([_task(NS_DEAD)])
        assert outcome.status is OutcomeStatus.GAVE_UP
        assert outcome.attempts == 3
        # 3 x 5s timeouts + 0.5s + 1.0s backoffs (plus wire latency)
        assert network.now - before == pytest.approx(16.5, abs=0.1)

    def test_timeouts_counted_per_attempt(self, network):
        policy = EnginePolicy(retries=1, circuit_failure_threshold=100)
        engine = BatchedEngine(network, SCANNER, policy=policy)
        engine.execute([_task(NS_DEAD), _task(NS_DEAD, qtype=RRType.TXT)])
        counters = engine.metrics.stage("ur")
        assert counters.queries == 4
        assert counters.timeouts == 4
        assert counters.retries == 2
        assert counters.giveups == 2

    def test_give_up_is_yielded_before_its_timeout_is_waited_out(
        self, network
    ):
        policy = EnginePolicy(retries=0, timeout=5.0)
        engine = BatchedEngine(network, SCANNER, policy=policy)
        before = network.now
        stream = engine.execute_iter([_task(NS_DEAD), _task(NS_LIVE)])
        index, outcome = next(stream)
        assert (index, outcome.status) == (0, OutcomeStatus.GAVE_UP)
        assert network.now - before < 1.0
        assert outcome.completed_at == pytest.approx(before + 5.0, abs=0.1)
        # nothing overlaps inside one engine call: the next server's
        # task starts once the timeout has passed (a phase of isolated
        # groups overlaps them — tests/plan/test_clock_rule.py)
        index, outcome = next(stream)
        assert (index, outcome.status) == (1, OutcomeStatus.ANSWERED)
        assert network.now - before == pytest.approx(5.0, abs=0.1)


class TestCircuitBreaking:
    def test_circuit_opens_and_skips(self, network):
        policy = EnginePolicy(retries=0, circuit_failure_threshold=5)
        engine = BatchedEngine(network, SCANNER, policy=policy)
        tasks = [
            _task(NS_DEAD, qtype=qtype)
            for qtype in (RRType.A, RRType.TXT)
            for _ in range(5)
        ]
        outcomes = engine.execute(tasks)
        statuses = [outcome.status for outcome in outcomes]
        assert statuses.count(OutcomeStatus.GAVE_UP) == 5
        assert statuses.count(OutcomeStatus.SKIPPED) == 5
        assert engine.circuit_state(NS_DEAD) is CircuitState.OPEN
        counters = engine.metrics.stage("ur")
        assert counters.queries == 5  # the wire was spared 5 sends
        assert counters.skipped == 5

    def test_circuit_recovers_after_reset(self, network):
        """OPEN -> HALF_OPEN probe -> CLOSED once the server heals."""
        policy = EnginePolicy(
            retries=0,
            circuit_failure_threshold=3,
            circuit_reset_interval=60.0,
        )
        engine = BatchedEngine(network, SCANNER, policy=policy)
        network.set_online(NS_LIVE, False)
        first = engine.execute([_task(NS_LIVE) for _ in range(5)])
        assert engine.circuit_state(NS_LIVE) is CircuitState.OPEN
        assert [outcome.status for outcome in first[3:]] == [
            OutcomeStatus.SKIPPED,
            OutcomeStatus.SKIPPED,
        ]

        network.set_online(NS_LIVE, True)
        network.tick(60.0)
        second = engine.execute([_task(NS_LIVE) for _ in range(3)])
        assert all(outcome.answered for outcome in second)
        assert engine.circuit_state(NS_LIVE) is CircuitState.CLOSED


class TestPacing:
    def test_per_server_gap_never_violated(self, network):
        interval = 130.0
        policy = EnginePolicy(per_server_interval=interval)
        engine = BatchedEngine(network, SCANNER, policy=policy)
        tasks = [
            _task(server, qtype=qtype)
            for server in (NS_LIVE, NS_LIVE2)
            for qtype in (RRType.A, RRType.TXT)
            for _ in range(2)
        ]
        with network.capturing(TrafficCapture()) as capture:
            engine.execute(tasks)
        flows = capture.filter(protocol=Protocol.DNS, src=SCANNER)
        for server in (NS_LIVE, NS_LIVE2):
            stamps = sorted(
                flow.timestamp for flow in flows if flow.dst == server
            )
            assert len(stamps) == 4
            gaps = [
                later - earlier
                for earlier, later in zip(stamps, stamps[1:])
            ]
            assert all(gap >= interval - 1e-6 for gap in gaps)

    def test_pacing_is_keyed_by_server(self, network):
        """Two servers paced at 130s, alternating: each server's bucket
        refills while the other is served, so 3 tokens per server cost
        2 intervals, not 5 — and every second of it is accounted."""
        engine = BatchedEngine(
            network, SCANNER, policy=EnginePolicy(per_server_interval=130.0)
        )
        tasks = [_task(NS_LIVE), _task(NS_LIVE2)] * 3
        before = network.now
        engine.execute(tasks)
        assert network.now - before == pytest.approx(260.0, abs=1.0)
        assert engine.metrics.stage("ur").rate_limit_wait == pytest.approx(
            260.0, abs=1.0
        )
