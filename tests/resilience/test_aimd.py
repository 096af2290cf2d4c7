"""AIMD adaptive send credit: unit behaviour plus engine composition."""

import pytest

from repro.engine import BatchedEngine, EnginePolicy
from repro.net.network import FaultProfile
from repro.resilience import AimdController, ResilienceMetrics

from ..conftest import drive, query
from .conftest import NS_LIVE, SCANNER


class TestAimdControllerUnit:
    def test_full_credit_means_no_delay(self):
        aimd = AimdController()
        assert aimd.ready_at(7.0, 0.025) == 7.0
        aimd.note_send(7.0)
        # still full credit: back-to-back sends allowed
        assert aimd.ready_at(7.0, 0.025) == 7.0

    def test_multiplicative_cut_spaces_sends(self):
        aimd = AimdController()
        aimd.note_send(0.0)
        assert aimd.on_failure()
        # credit 0.5 -> half the rate: one 25 ms round trip becomes two,
        # and a 130 s paced gap becomes 260 s
        assert aimd.ready_at(0.0, 0.025) == pytest.approx(0.05)
        assert aimd.ready_at(0.0, 130.0) == pytest.approx(260.0)
        assert aimd.on_failure()
        assert aimd.ready_at(0.0, 0.025) == pytest.approx(0.1)

    def test_no_interval_means_no_wait(self):
        # nothing observed and no pacing set: a server that never
        # answered is the breaker's, AIMD adds nothing at any credit
        aimd = AimdController()
        aimd.note_send(3.0)
        for _ in range(5):
            aimd.on_failure()
        assert aimd.ready_at(3.0, 0.0) == 3.0

    def test_additive_recovery_restores_full_credit(self):
        aimd = AimdController()
        aimd.on_failure()
        for _ in range(2):
            aimd.on_success()
        aimd.note_send(0.0)
        assert aimd.ready_at(0.0, 0.025) == 0.0

    def test_credit_never_falls_below_floor(self):
        aimd = AimdController()
        for _ in range(50):
            aimd.on_failure()
        aimd.note_send(0.0)
        # floored credit: the wait is bounded at 16 healthy intervals,
        # not unbounded backoff
        assert aimd.credit == 1.0 / 16.0
        assert aimd.ready_at(0.0, 0.025) == pytest.approx(0.4)

    def test_repeat_failure_reporting(self):
        aimd = AimdController()
        assert aimd.on_failure()
        # already at the floor after enough cuts: no new cut reported
        for _ in range(10):
            aimd.on_failure()
        assert not aimd.on_failure()


class TestEngineComposition:
    def _engine(self, network, server_ip=NS_LIVE, interval=0.0):
        engine = BatchedEngine(
            network,
            SCANNER,
            server_ip,
            "ur",
            EnginePolicy(per_server_interval=interval, retries=1),
        )
        engine.aimd = AimdController()
        return engine

    def test_clean_run_is_untouched(self, make_network):
        network = make_network()
        engine = self._engine(network)
        drive(engine, [query() for _ in range(6)])
        assert engine.metrics.aimd_cuts == 0
        assert engine.metrics.aimd_wait == 0.0
        assert not ResilienceMetrics(engine.metrics).active

    def test_timeouts_cut_and_delay(self, make_network):
        network = make_network()
        network.add_fault_window(
            NS_LIVE, FaultProfile(loss_rate=1.0, duration=12.0)
        )
        engine = self._engine(network)
        drive(engine, [query() for _ in range(4)])
        metrics = engine.metrics
        assert metrics.aimd_cuts > 0
        assert metrics.aimd_wait > 0.0
        events = [
            fields
            for event, _, fields in engine.events
            if event == "aimd.cut"
        ]
        assert len(events) == metrics.aimd_cuts
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
                NS_LIVE,
                "ur",
                EnginePolicy(per_server_interval=2.0, retries=1),
            )
            if with_aimd:
                engine.aimd = AimdController()
            drive(engine, [query() for _ in range(4)])
            return network.now, engine.metrics.stage("ur").rate_limit_wait

        paced_clock, paced_wait = run(with_aimd=False)
        aimd_clock, aimd_wait = run(with_aimd=True)
        assert aimd_clock >= paced_clock
        # the token-bucket share of the wait is unchanged; AIMD's extra
        # wait is accounted separately, not folded into pacing
        assert aimd_wait == pytest.approx(paced_wait)

    def test_recovered_lane_returns_to_full_speed(self, make_network):
        network = make_network()
        network.add_fault_window(
            NS_LIVE, FaultProfile(loss_rate=1.0, duration=12.0)
        )
        engine = self._engine(network)
        drive(engine, [query() for _ in range(4)])
        assert engine.aimd.credit < 1.0
        # past the window every answer adds credit back, and at full
        # credit the lane sends back to back again
        network.tick(12.0)
        drive(engine, [query() for _ in range(4)])
        assert engine.aimd.credit == 1.0
        waited = engine.metrics.aimd_wait
        drive(engine, [query() for _ in range(4)])
        assert engine.metrics.aimd_wait == waited
