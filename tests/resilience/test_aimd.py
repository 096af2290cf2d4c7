"""AIMD adaptive send credit: unit behaviour plus engine composition."""

import json

import pytest

from repro.dns.name import name
from repro.dns.rdata import RRType
from repro.engine import BatchedEngine, EnginePolicy, QueryTask
from repro.net.network import FaultProfile
from repro.obs import RunTrace
from repro.resilience import AimdController

from .conftest import NS_LIVE, NS_LIVE2, SCANNER


def _task(server_ip, qtype=RRType.A, stage="ur"):
    return QueryTask(
        server_ip=server_ip,
        qname=name("example.test"),
        qtype=qtype,
        stage=stage,
    )


class TestAimdControllerUnit:
    def test_full_credit_means_no_delay(self):
        aimd = AimdController()
        assert aimd.ready_at("10.0.0.1", 7.0, 0.025) == 7.0
        aimd.note_send("10.0.0.1", 7.0)
        # still full credit: back-to-back sends allowed
        assert aimd.ready_at("10.0.0.1", 7.0, 0.025) == 7.0

    def test_multiplicative_cut_spaces_sends(self):
        aimd = AimdController()
        aimd.note_send("10.0.0.1", 0.0)
        assert aimd.on_failure("10.0.0.1")
        # credit 0.5 -> half the rate: one 25 ms round trip becomes two,
        # and a 130 s paced gap becomes 260 s
        assert aimd.ready_at("10.0.0.1", 0.0, 0.025) == pytest.approx(0.05)
        assert aimd.ready_at("10.0.0.1", 0.0, 130.0) == pytest.approx(260.0)
        assert aimd.on_failure("10.0.0.1")
        assert aimd.ready_at("10.0.0.1", 0.0, 0.025) == pytest.approx(0.1)

    def test_no_interval_means_no_wait(self):
        # nothing observed and no pacing set: a server that never
        # answered is the breaker's, AIMD adds nothing at any credit
        aimd = AimdController()
        aimd.note_send("10.0.0.1", 3.0)
        for _ in range(5):
            aimd.on_failure("10.0.0.1")
        assert aimd.ready_at("10.0.0.1", 3.0, 0.0) == 3.0

    def test_additive_recovery_restores_full_credit(self):
        aimd = AimdController()
        aimd.on_failure("10.0.0.1")
        for _ in range(2):
            aimd.on_success("10.0.0.1")
        aimd.note_send("10.0.0.1", 0.0)
        assert aimd.ready_at("10.0.0.1", 0.0, 0.025) == 0.0

    def test_credit_never_falls_below_floor(self):
        aimd = AimdController()
        for _ in range(50):
            aimd.on_failure("10.0.0.1")
        aimd.note_send("10.0.0.1", 0.0)
        # floored credit: the wait is bounded at 16 healthy intervals,
        # not unbounded backoff
        assert aimd.credit("10.0.0.1") == 1.0 / 16.0
        assert aimd.ready_at("10.0.0.1", 0.0, 0.025) == pytest.approx(0.4)

    def test_credit_is_per_server(self):
        aimd = AimdController()
        aimd.on_failure("10.0.0.1")
        aimd.note_send("10.0.0.2", 0.0)
        assert aimd.credit("10.0.0.2") == 1.0
        assert aimd.ready_at("10.0.0.2", 0.0, 0.025) == 0.0

    def test_repeat_failure_reporting(self):
        aimd = AimdController()
        assert aimd.on_failure("10.0.0.1")
        # already at the floor after enough cuts: no new cut reported
        for _ in range(10):
            aimd.on_failure("10.0.0.1")
        assert not aimd.on_failure("10.0.0.1")


class TestEngineComposition:
    def _engine(self, network, interval=0.0):
        engine = BatchedEngine(
            network,
            SCANNER,
            EnginePolicy(per_server_interval=interval, retries=1),
        )
        engine.aimd = AimdController()
        engine.trace = RunTrace()
        return engine

    def test_clean_run_is_untouched(self, make_network):
        network = make_network()
        engine = self._engine(network)
        engine.execute([_task(NS_LIVE) for _ in range(6)])
        assert engine.resilience.aimd_cuts == 0
        assert engine.resilience.aimd_wait == 0.0
        assert not engine.resilience.active

    def test_timeouts_cut_and_delay(self, make_network):
        network = make_network()
        network.add_fault_window(
            NS_LIVE, FaultProfile(loss_rate=1.0, duration=12.0)
        )
        engine = self._engine(network)
        engine.execute([_task(NS_LIVE) for _ in range(4)])
        resilience = engine.resilience
        assert resilience.aimd_cuts > 0
        assert resilience.aimd_wait > 0.0
        events = [
            json.loads(line)
            for line in engine.trace.deterministic_lines()
            if json.loads(line).get("event") == "aimd.cut"
        ]
        assert len(events) == resilience.aimd_cuts
        assert all(event["server"] == NS_LIVE for event in events)

    def test_aimd_composes_with_pacing(self, make_network):
        # pacing alone vs pacing+AIMD on a faulted server: AIMD may only
        # add delay on top of the token bucket, never bypass it
        def run(with_aimd):
            network = make_network()
            network.add_fault_window(
                NS_LIVE, FaultProfile(loss_rate=1.0, duration=12.0)
            )
            engine = BatchedEngine(
                network,
                SCANNER,
                EnginePolicy(per_server_interval=2.0, retries=1),
            )
            if with_aimd:
                engine.aimd = AimdController()
            engine.execute([_task(NS_LIVE) for _ in range(4)])
            return network.now, engine.metrics.stage("ur").rate_limit_wait

        paced_clock, paced_wait = run(with_aimd=False)
        aimd_clock, aimd_wait = run(with_aimd=True)
        assert aimd_clock >= paced_clock
        # the token-bucket share of the wait is unchanged; AIMD's extra
        # wait is accounted separately, not folded into pacing
        assert aimd_wait == pytest.approx(paced_wait)

    def test_unrelated_server_keeps_full_speed(self, make_network):
        network = make_network()
        network.add_fault_window(
            NS_LIVE, FaultProfile(loss_rate=1.0, duration=12.0)
        )
        engine = self._engine(network)
        engine.execute(
            [_task(NS_LIVE), _task(NS_LIVE2), _task(NS_LIVE2)]
        )
        # cuts happened on the faulted server only; the healthy one
        # answered everything without AIMD delay
        counters = engine.metrics.stage("ur")
        assert counters.responses >= 2
